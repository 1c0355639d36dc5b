package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the sample-count rule for tail percentiles: a percentile
// is reported only when at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation between closest ranks, the same rule as numpy's default
// and Python's statistics.quantiles(method="inclusive"). xs need not be
// sorted; it is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// beyond counts the samples a q-quantile of n samples leaves above it.
func beyond(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9)) // 1-q is inexact, e.g. 100×(1-0.9) < 10
}

// tailQuantile picks the highest of p99, p90 and p75 with at least
// minBeyond samples beyond it, or 0 when even p75 has too few.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.9, 0.75} {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// secs converts durations to float seconds.
func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// describe renders a latency sample as "p50 X (n=N)" plus the highest
// reportable tail percentile.
func describe(xs []float64, unit string) string {
	n := len(xs)
	if n == 0 {
		return "no samples"
	}
	s := fmt.Sprintf("p50 %.4g %s", percentile(xs, 0.5), unit)
	if q := tailQuantile(n); q > 0 {
		s += fmt.Sprintf(", p%g %.4g %s", q*100, percentile(xs, q), unit)
	}
	return s + fmt.Sprintf(" (n=%d)", n)
}

// mean of xs, 0 for an empty slice (used for per-layer means whose layer
// a workload bypasses).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
