package main

import (
	"math"
	"testing"
	"time"
)

// The percentile rule: report the highest percentile with at least ten
// samples beyond it; a p99 needs 1,000 samples and is left out below.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 0.90}, {999, 0.90}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("n=%d: highest percentile %v, want %v", c.n, got, c.want)
		}
	}
	var p phase
	for i := 1; i <= minP99Samples-1; i++ {
		p.lat[opTag] = append(p.lat[opTag], time.Duration(i)*time.Microsecond)
	}
	if got := p.p99(opTag); got != 0 {
		t.Fatalf("p99 of %d samples reported as %v", len(p.lat[opTag]), got)
	}
	p.lat[opTag] = append(p.lat[opTag], 1000*time.Microsecond)
	if got := p.p99(opTag); got != 990 {
		t.Fatalf("p99 of 1..1000us = %v, want 990", got)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []time.Duration{10, 20, 30, 40, 50}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 30}, {0.2, 10}, {0.21, 20}, {1, 50}, {0.99, 50}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("q=%v: %v, want %v", c.q, got, c.want)
		}
	}
	if percentile[time.Duration](nil, 0.5) != 0 {
		t.Error("percentile of nothing is not 0")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is what the contract's spread is computed with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3.1, 2.9, 3.0, 3.4, 2.8], n=4) == [2.85, 3.0, 3.25]
	q1, q3 = quartiles([]float64{3.1, 2.9, 3.0, 3.4, 2.8})
	if math.Abs(q1-2.85) > 1e-12 || math.Abs(q3-3.25) > 1e-12 {
		t.Fatalf("quartiles = %v, %v; Python gives 2.85, 3.25", q1, q3)
	}
	if got := spread([]float64{3.1, 2.9, 3.0, 3.4, 2.8}); math.Abs(got-0.4/3.0) > 1e-12 {
		t.Fatalf("spread = %v, want (3.25-2.85)/3.0", got)
	}
	if spread([]float64{5}) != 0 {
		t.Fatal("one value has a spread")
	}
}
