package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// rssEvery is how often a pass's resident set size is sampled. The Go
// runtime returns freed memory to the kernel only minutes later, so a heap
// peak stays resident far longer than one interval.
const rssEvery = 5 * time.Millisecond

// rssSampler tracks the peak resident set size while a pass runs.
type rssSampler struct {
	stopc chan struct{}
	peak  chan float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		peak := residentMB()
		for {
			select {
			case <-s.stopc:
				s.peak <- max(peak, residentMB())
				return
			case <-t.C:
				peak = max(peak, residentMB())
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in MiB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	return <-s.peak
}

// residentMB reads the process's resident set size from /proc/self/statm
// (its second field, in pages); 0 where that file does not exist.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := bytes.Fields(data)
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(string(fields[1]), 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*uint64(os.Getpagesize())) / (1 << 20)
}
