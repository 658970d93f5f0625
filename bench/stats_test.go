package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	s := summarize(xs)
	if s.N != 10 || !near(s.Q1, 2.75) || !near(s.Median, 5.5) || !near(s.Q3, 8.25) {
		t.Fatalf("summary of 1..10 = %+v", s)
	}
	if !near(s.spread(), 1.0) {
		t.Fatalf("spread = %v, want 1", s.spread())
	}
	// statistics.quantiles([2, 4, 4, 5, 7], n=4) == [3.0, 4.0, 6.0]
	s = summarize([]float64{4, 2, 7, 5, 4})
	if !near(s.Q1, 3) || !near(s.Median, 4) || !near(s.Q3, 6) {
		t.Fatalf("summary = %+v", s)
	}
	// Odd and even medians.
	if m := median([]float64{3, 1, 2}); !near(m, 2) {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); !near(m, 2.5) {
		t.Fatalf("median = %v", m)
	}
}

func TestQuantileDegenerateSamples(t *testing.T) {
	if s := summarize([]float64{7}); s.N != 1 || s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 || s.spread() != 0 {
		t.Fatalf("single sample summary = %+v", s)
	}
	if s := summarize(nil); s.N != 0 || !math.IsNaN(s.Median) {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..200
	}
	// pos = 0.95·201 = 190.95 → between the 190th and 191st values.
	if p := percentile(xs, 95); !near(p, 190.95) {
		t.Fatalf("p95 = %v", p)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 99.9},
		{9999, 99},
		{1000, 99},
		{999, 95},
		{200, 95},
		{199, 90},
		{100, 90},
		{99, 80},
		{50, 80},
		{49, 75},
		{40, 75},
		{39, 0}, // too few samples: median only
		{0, 0},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if supports(199, 95) || !supports(200, 95) {
		t.Error("supports(·, 95) must flip at 200 samples")
	}
}
