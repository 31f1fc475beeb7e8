package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile for it to be
// reported as measured rather than guessed.
const minTail = 10

// percentileLadder is the set of percentiles a latency may be summarised
// by, lowest first.
var percentileLadder = []float64{50, 90, 99, 99.9}

// percentile returns the p-th percentile of sorted by the nearest-rank
// method; NaN for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := nearestRank(len(sorted), p)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailBeyond is how many of n samples lie beyond the p-th percentile.
func tailBeyond(n int, p float64) int {
	return n - nearestRank(n, p)
}

// nearestRank is ⌈p/100 · n⌉, with the rounding error of p/100 (99.9 is
// not exact in binary) kept from pushing an exact rank up by one.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// highestPercentile picks the highest ladder percentile with at least
// minTail samples beyond it; ok is false when even the lowest lacks them.
func highestPercentile(n int) (p float64, ok bool) {
	for i := len(percentileLadder) - 1; i >= 0; i-- {
		if tailBeyond(n, percentileLadder[i]) >= minTail {
			return percentileLadder[i], true
		}
	}
	return 0, false
}

// median of xs (which it does not modify); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latencySummary is one op kind's latencies: the median, the configured
// tail (p99) and the highest percentile the sample count supports.
type latencySummary struct {
	N        int     `json:"n"`
	P50      float64 `json:"p50_ms"`
	P99      float64 `json:"p99_ms"`
	P99Tail  int     `json:"p99_beyond"` // samples beyond p99; < minTail means p99 is a diagnostic only
	TopP     float64 `json:"top_percentile,omitempty"`
	TopValue float64 `json:"top_ms,omitempty"`
}

func summarize(ms []float64) latencySummary {
	s := sortedCopy(ms)
	out := latencySummary{N: len(s), P50: median(s), P99: percentile(s, 99), P99Tail: tailBeyond(len(s), 99)}
	if p, ok := highestPercentile(len(s)); ok {
		out.TopP, out.TopValue = p, percentile(s, p)
	}
	return out
}
