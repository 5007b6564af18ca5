package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is how the
// acceptance rule for this benchmark computes run-to-run spread. With
// fewer than two values both quartiles are the single value.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailPercentile picks the percentile a latency distribution of n samples
// can support: the highest whole percentile that still has at least ten
// samples beyond it, capped at p99 and never below the median.
func tailPercentile(n int) int {
	if n <= 0 {
		return 50
	}
	p := int(math.Floor(100 * (1 - 10/float64(n))))
	if p > 99 {
		p = 99
	}
	if p < 50 {
		p = 50
	}
	return p
}

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(asc []float64, p int) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(p) / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	return asc[rank-1]
}

// geomean is exp(mean(log v)) summed in slice order, so equal inputs in
// equal order give a bit-identical result.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}
