package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest value with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// small slack keeps products such as 0.999·10000 from rounding up past an
// exact rank.
func rank(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailLadder lists the percentiles a tail figure may be reported at,
// highest first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a percentile before it is
// worth reporting: a tail figure resting on fewer is one outlier's value.
const minBeyond = 10

// tailPercentile picks the highest percentile on tailLadder that has at
// least minBeyond of n samples strictly beyond its nearest rank, and
// returns it with that count. ok is false when even the median lacks
// them.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		if b := n - rank(n, p); b >= minBeyond {
			return p, b, true
		}
	}
	return 0, 0, false
}

// micros converts durations to float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}
