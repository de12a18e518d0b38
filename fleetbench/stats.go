package main

import (
	"math"
	"slices"
	"time"
)

// percentileLadder lists the percentiles a tail may be reported at, highest
// first.
var percentileLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of the ladder that has at
// least ten of n samples beyond it; 0 when even the median has not.
func tailPercentile(n int) float64 {
	for _, p := range percentileLadder {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100)))
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

func sortedDurations(d []time.Duration) []time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	return s
}

func medianFloat(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = ms(x)
	}
	return out
}

func scaleAll(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}
