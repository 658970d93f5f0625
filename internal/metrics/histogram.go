package metrics

import (
	"fmt"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// Histogram layout: values 0–7 ns land in one exact bucket each; every
// larger value lands in one of eight log-linear sub-buckets per power of
// two (≤ 12.5% relative error), covering the full int64 nanosecond
// range. The layout is fixed, so histograms recorded anywhere are
// mergeable and snapshot deltas are exact per bucket.
const (
	histLinear  = 8                           // exact buckets for 0..7 ns
	histSub     = 8                           // sub-buckets per octave
	histBuckets = histLinear + (63-3)*histSub // 488
)

// Histogram is a lock-free latency histogram with fixed log-scale
// buckets: Record is a pair of atomic adds (no allocation, no locks), so
// it is safe on hot paths under any concurrency, and bucket counts are
// order-independent — concurrent recorders aggregate index-stably.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
}

// Record adds one duration observation.
func (h *Histogram) Record(d time.Duration) { h.RecordNS(int64(d)) }

// RecordNS adds one observation in nanoseconds.
func (h *Histogram) RecordNS(ns int64) {
	h.buckets[bucketOf(ns)].Add(1)
	h.sum.Add(ns)
}

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(ns int64) int {
	if ns < histLinear {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 // >= 3
	idx := histLinear + (exp-3)*histSub + int((uint64(ns)>>(exp-3))&(histSub-1))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketUpper returns the inclusive upper bound (ns) of a bucket, the
// conservative value quantile estimates report.
func bucketUpper(idx int) int64 {
	if idx < histLinear {
		return int64(idx)
	}
	exp := uint(3 + (idx-histLinear)/histSub)
	sub := int64((idx - histLinear) % histSub)
	lower := (histLinear + sub) << (exp - 3)
	return lower + (1 << (exp - 3)) - 1
}

// Snapshot returns a point-in-time copy of the histogram. The copy is
// not atomic across buckets: concurrent Records may straddle it, which
// shifts an observation between adjacent snapshots but never loses it.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Sum = h.sum.Load()
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram's buckets,
// supporting merge, interval subtraction, and quantile estimation.
type HistogramSnapshot struct {
	Buckets [histBuckets]int64
	Sum     int64
}

// A HistogramSnapshot serializes the way the wire telemetry's other
// arrays do (wire.go): an object of the occupied buckets keyed by index
// — most of the 488 log-scale buckets are empty in any real interval —
// with the sum beside them under "sum_ns".
func histName(i int) string {
	if i == histBuckets {
		return "sum_ns"
	}
	return strconv.Itoa(i)
}

func (s HistogramSnapshot) MarshalJSON() ([]byte, error) {
	return marshalByName(histName, append(s.Buckets[:], s.Sum))
}

// UnmarshalJSON is where a worker's histogram enters the coordinator:
// a bucket index outside the layout is a name this build does not
// have, and a negative count is refused.
func (s *HistogramSnapshot) UnmarshalJSON(b []byte) error {
	elems := make([]int64, histBuckets+1)
	if err := unmarshalByName(b, histName, elems); err != nil {
		return err
	}
	copy(s.Buckets[:], elems)
	s.Sum = elems[histBuckets]
	for i, n := range s.Buckets {
		if n < 0 {
			return fmt.Errorf("metrics: histogram bucket %d has the negative count %d", i, n)
		}
	}
	return nil
}

// Count returns the number of recorded observations.
func (s HistogramSnapshot) Count() int64 {
	var n int64
	for _, b := range s.Buckets {
		n += b
	}
	return n
}

// Merge returns the bucket-wise sum of two snapshots. Because the
// bucket layout is fixed, merging sharded histograms is exact.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	out := s
	for i := range out.Buckets {
		out.Buckets[i] += o.Buckets[i]
	}
	out.Sum += o.Sum
	return out
}

// Sub returns the per-interval delta s − prev, for deriving one run's
// latency distribution out of cumulative buckets.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := s
	for i := range out.Buckets {
		out.Buckets[i] -= prev.Buckets[i]
	}
	out.Sum -= prev.Sum
	return out
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) in nanoseconds: the upper
// edge of the bucket holding the rank, so estimates err high by at most
// one sub-bucket width (12.5%). An empty snapshot returns 0.
func (s HistogramSnapshot) Quantile(p float64) int64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	rank := int64(p * float64(total-1))
	var cum int64
	for i, b := range s.Buckets {
		cum += b
		if cum > rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// Max returns the upper edge of the highest occupied bucket (0 when
// empty) — the bucket-resolution maximum, which stays subtractable
// across interval snapshots unlike an exact running max.
func (s HistogramSnapshot) Max() int64 {
	for i := histBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] > 0 {
			return bucketUpper(i)
		}
	}
	return 0
}

// Mean returns the mean observation in nanoseconds, 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return float64(s.Sum) / float64(n)
}
