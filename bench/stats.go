package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank is the 1-based position of the p-th percentile among n sorted
// samples: the smallest rank with at least p percent of the samples at or
// below it. The epsilon keeps 99.9 % of 10 000 at 9990 despite rounding.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[nearestRank(len(xs), p)-1]
}

// tailCandidates are the percentiles a timing may be reported at, ascending.
var tailCandidates = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// samplesBeyond counts the samples strictly above the nearest-rank p-th
// percentile position of an n-sample set.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// tailPercentile picks the highest candidate percentile that still has at
// least minBeyond samples beyond it, or 0 when even the median has not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		if samplesBeyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method), which
// is how the acceptance spread is defined. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j, delta := i*m/n, i*m%n
		if j < 1 {
			j, delta = 1, 0
		} else if j > ld-1 {
			j, delta = ld-1, n
		}
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spreadShare is the interquartile distance of xs as a share of its median.
func spreadShare(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}
