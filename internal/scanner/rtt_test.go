package scanner_test

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snmpv3fp/internal/obs"
	"snmpv3fp/internal/scanner"
	"snmpv3fp/internal/vclock"
)

// The scripted targets of TestScanRTTSemantics.
var (
	rttFast  = netip.MustParseAddr("192.0.2.1") // answers its first probe after 1/8 s
	rttSlow  = netip.MustParseAddr("192.0.2.2") // answers its first probe after 1/4 s
	rttRetry = netip.MustParseAddr("192.0.2.3") // answers only the retry, after 1/8 s
	rttLate  = netip.MustParseAddr("192.0.2.4") // answers both probes, both during the retry pass
	rttMute  = netip.MustParseAddr("192.0.2.5") // never answers
)

// rttScript is a scalar transport whose responses carry exact, dyadic
// delays (1/8 s, 1/4 s, 1/2 s), so the expected RTT sum is exact in any
// observation order. The wrappers below add the timed and batch send APIs,
// selecting the engine's logical or paced mode and its scalar or batch path.
type rttScript struct {
	clock vclock.Clock

	mu       sync.Mutex
	attempts map[netip.Addr]int
	held     time.Time // when rttLate's first probe was sent
	ch       chan scanner.Response
	queued   atomic.Uint64
	close    sync.Once
}

func newRTTScript(clock vclock.Clock) *rttScript {
	return &rttScript{clock: clock, attempts: map[netip.Addr]int{}, ch: make(chan scanner.Response, 64)}
}

func (s *rttScript) sendAt(dst netip.Addr, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempts[dst]++
	switch n := s.attempts[dst]; {
	case dst == rttFast && n == 1:
		s.answer(dst, at.Add(time.Second/8))
	case dst == rttSlow && n == 1:
		s.answer(dst, at.Add(time.Second/4))
	case dst == rttRetry && n == 2:
		s.answer(dst, at.Add(time.Second/8))
		// An unsolicited repeat from rttFast, which the retry pass does not
		// probe: it has no send in this pass and must not be observed.
		s.answer(rttFast, at.Add(time.Second/8))
	case dst == rttLate && n == 1:
		s.held = at
	case dst == rttLate && n == 2:
		// The first probe's answer arrives only now, stamped before this
		// pass's send (a negative RTT, skipped), then the retry's own.
		s.answer(dst, s.held.Add(time.Second/2))
		s.answer(dst, at.Add(time.Second/4))
	}
}

func (s *rttScript) answer(src netip.Addr, at time.Time) {
	s.queued.Add(1)
	s.ch <- scanner.Response{Src: src, Payload: []byte{0x30, 0x00}, At: at}
}

func (s *rttScript) Send(dst netip.Addr, payload []byte) error {
	s.sendAt(dst, s.clock.Now())
	return nil
}

func (s *rttScript) Recv() (netip.Addr, []byte, time.Time, error) {
	r, ok := <-s.ch
	if !ok {
		return netip.Addr{}, nil, time.Time{}, io.EOF
	}
	return r.Src, r.Payload, r.At, nil
}

func (s *rttScript) Close() error {
	s.close.Do(func() { close(s.ch) })
	return nil
}

func (s *rttScript) QueuedResponses() uint64 { return s.queued.Load() }

// rttTimed adds SendAt: logical mode, scalar path.
type rttTimed struct{ *rttScript }

func (s rttTimed) SendAt(dst netip.Addr, payload []byte, at time.Time) error {
	s.sendAt(dst, at)
	return nil
}

// rttTimedBatch adds SendBatchAt: logical mode, batch path.
type rttTimedBatch struct{ rttTimed }

func (s rttTimedBatch) SendBatchAt(dsts []netip.Addr, payload []byte, ats []time.Time) (int, error) {
	for i, dst := range dsts {
		s.sendAt(dst, ats[i])
	}
	return len(dsts), nil
}

// rttBatch adds SendBatch: paced mode, batch path.
type rttBatch struct{ *rttScript }

func (s rttBatch) SendBatch(dsts []netip.Addr, payload []byte) (int, error) {
	for _, dst := range dsts {
		s.sendAt(dst, s.clock.Now())
	}
	return len(dsts), nil
}

// TestScanRTTSemantics pins what the probe RTT histogram records over a
// two-pass campaign: resp.At minus the send instant of the same source in
// the same pass, positive durations only, each pass seeing only the
// responses captured since the previous one. It must hold in logical and
// paced mode, on the scalar and batch send paths, at any worker count.
func TestScanRTTSemantics(t *testing.T) {
	views := []struct {
		name string
		wrap func(*rttScript) scanner.Transport
	}{
		{"logical/scalar", func(s *rttScript) scanner.Transport { return rttTimed{s} }},
		{"logical/batch", func(s *rttScript) scanner.Transport { return rttTimedBatch{rttTimed{s}} }},
		{"paced/scalar", func(s *rttScript) scanner.Transport { return s }},
		{"paced/batch", func(s *rttScript) scanner.Transport { return rttBatch{s} }},
	}
	// rttFast 1/8 and rttSlow 1/4 in the first pass; rttRetry 1/8 and
	// rttLate's fresh answer 1/4 in the retry pass.
	want := []float64{0.125, 0.125, 0.25, 0.25}
	for _, v := range views {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", v.name, workers), func(t *testing.T) {
				clock := vclock.NewVirtual(time.Unix(1_000_000_000, 0))
				targets, err := scanner.NewListSpace([]netip.Addr{rttFast, rttSlow, rttRetry, rttLate, rttMute}, 3)
				if err != nil {
					t.Fatal(err)
				}
				reg := obs.NewRegistry()
				_, err = scanner.ScanContext(context.Background(), v.wrap(newRTTScript(clock)), targets, scanner.Config{
					Rate: 1000, Batch: 2, Timeout: time.Second, Clock: clock, Seed: 3,
					Workers: workers, Retries: 1, Obs: reg,
				})
				if err != nil {
					t.Fatal(err)
				}
				checkHistogram(t, reg, "snmpfp_scan_probe_rtt_seconds", want)
			})
		}
	}
}

// checkHistogram asserts the histogram family name holds exactly the
// observations want: count, sum and every cumulative bucket.
func checkHistogram(t *testing.T, reg *obs.Registry, name string, want []float64) {
	t.Helper()
	for _, p := range reg.Snapshot() {
		if p.Name != name {
			continue
		}
		var sum float64
		for _, v := range want {
			sum += v
		}
		if p.Count != uint64(len(want)) || p.Sum != sum {
			t.Errorf("%s: count %d sum %v, want count %d sum %v", name, p.Count, p.Sum, len(want), sum)
		}
		for i, bound := range p.Bounds {
			var le uint64
			for _, v := range want {
				if v <= bound {
					le++
				}
			}
			if p.Buckets[i] != le {
				t.Errorf("%s: bucket le=%v holds %d, want %d", name, bound, p.Buckets[i], le)
			}
		}
		return
	}
	t.Errorf("%s: no such histogram", name)
}

// chattyTransport keeps delivering responses from one target, stamped with
// the campaign clock, until it is closed. It has no ResponseCounter, so the
// pass barrier does not wait for it: capture keeps appending responses
// while the pass-end RTT join reads the ones already captured.
type chattyTransport struct {
	clock vclock.Clock
	src   netip.Addr
	done  chan struct{}
	close sync.Once
}

func (c *chattyTransport) Send(dst netip.Addr, payload []byte) error { return nil }

func (c *chattyTransport) SendAt(dst netip.Addr, payload []byte, at time.Time) error { return nil }

func (c *chattyTransport) Recv() (netip.Addr, []byte, time.Time, error) {
	select {
	case <-c.done:
		return netip.Addr{}, nil, time.Time{}, io.EOF
	case <-time.After(20 * time.Microsecond):
		return c.src, []byte{0x30, 0x00}, c.clock.Now(), nil
	}
}

func (c *chattyTransport) Close() error {
	c.close.Do(func() { close(c.done) })
	return nil
}

// TestScanRTTJoinDuringCapture runs the pass-end RTT join while the capture
// goroutine is still appending responses; run it under -race.
func TestScanRTTJoinDuringCapture(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(1_000_000_000, 0))
	targets, err := scanner.NewPrefixSpace([]netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")}, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr := &chattyTransport{clock: clock, src: netip.MustParseAddr("192.0.2.7"), done: make(chan struct{})}
	reg := obs.NewRegistry()
	res, err := scanner.ScanContext(context.Background(), tr, targets, scanner.Config{
		Rate: 1000, Batch: 8, Timeout: time.Second, Clock: clock, Seed: 5,
		Workers: 4, Retries: 3, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) == 0 {
		t.Fatal("no responses captured")
	}
	if got := uint64(reg.Value("snmpfp_scan_probe_rtt_seconds")); got > uint64(len(res.Responses)) {
		t.Fatalf("observed %d RTTs from %d responses", got, len(res.Responses))
	}
}
