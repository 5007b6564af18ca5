package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	// The highest whole percentile with at least ten samples beyond it,
	// capped at p99 and never below the median.
	for n, want := range map[int]int{0: 50, 5: 50, 20: 50, 40: 75, 100: 90, 200: 95, 999: 98, 1000: 99, 1000000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", n, got, want)
		}
		if n >= 20 {
			if beyond := float64(n) * (1 - float64(tailPercentile(n))/100); beyond < 10-1e-9 {
				t.Errorf("n=%d: only %.1f samples beyond the chosen percentile", n, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[int]float64{50: 5, 90: 9, 99: 10, 1: 1} {
		if got := percentile(asc, p); got != want {
			t.Errorf("p%d = %v, want %v", p, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) from CPython, exclusive method.
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 30, 20}, 10, 30},
		{[]float64{5, 7}, 4.5, 7.5},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %v", g)
	}
}
