package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0 < p < 1) of an ascending sample by
// the exclusive method of Python's statistics.quantiles — the estimator
// the acceptance driver applies to run-to-run spreads, so -check and
// the driver agree on the same numbers.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	pos := p * float64(n+1)
	j := int(pos)
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	d := pos - float64(j)
	return sorted[j-1]*(1-d) + sorted[j]*d
}

// summary is what every timing row reports: the sample count, the
// median, the quartiles, and the highest percentile the sample supports
// (TailP is 0 when it supports none).
type summary struct {
	N      int
	Median float64
	Q1, Q3 float64
	TailP  float64
	Tail   float64
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	out := summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
	if out.TailP = tailPercentile(len(s)); out.TailP > 0 {
		out.Tail = quantile(s, out.TailP/100)
	}
	return out
}

// spread is the interquartile distance as a share of the median: the
// run-to-run dispersion a bound is compared against.
func (s summary) spread() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// percentile is quantile over an unsorted sample, p in percent.
func percentile(xs []float64, p float64) float64 { return quantile(sortedCopy(xs), p/100) }

// tailLadder lists the tail percentiles a timing row may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 80, 75}

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the estimate is one or two outliers, not a tail.
const minBeyond = 10

// tailPercentile returns the highest ladder percentile that still has
// minBeyond samples beyond it, or 0 when the sample supports none —
// the row then reports its median only.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		// The epsilon absorbs binary rounding of 1−p/100 (200·0.05 must
		// count as ten).
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// supports reports whether n samples leave minBeyond beyond percentile p.
func supports(n int, p float64) bool { return float64(n)*(1-p/100) >= minBeyond-1e-9 }
