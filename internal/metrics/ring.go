package metrics

import "sync/atomic"

// ring is the one bounded lock-free journal behind the event journal,
// the trace-span sink and the telemetry error channel. A writer claims
// a sequence number with one atomic add and publishes with one atomic
// pointer store; readers never block writers. Sequence numbers start at
// 1 and are strictly increasing in claim order; only the last len(slots)
// items are retrievable, and a reader is told how many of the range it
// asked for it can no longer see.
type ring[T any] struct {
	seq   atomic.Uint64
	slots []atomic.Pointer[ringItem[T]]
}

type ringItem[T any] struct {
	seq uint64
	v   T
}

func newRing[T any](size int) *ring[T] {
	return &ring[T]{slots: make([]atomic.Pointer[ringItem[T]], size)}
}

// claim reserves the next sequence number.
func (r *ring[T]) claim() uint64 { return r.seq.Add(1) }

// publish stores v under a claimed sequence number. v is copied into a
// fresh heap object here rather than published by address: taking the
// caller's value's address would make it escape in every caller,
// putting an allocation on gated-off paths too.
func (r *ring[T]) publish(seq uint64, v T) {
	r.slots[(seq-1)%uint64(len(r.slots))].Store(&ringItem[T]{seq: seq, v: v})
}

// last returns the most recently claimed sequence number.
func (r *ring[T]) last() uint64 { return r.seq.Load() }

// overwritten returns how many items the ring has dropped to make room.
func (r *ring[T]) overwritten() uint64 {
	if n, size := r.seq.Load(), uint64(len(r.slots)); n > size {
		return n - size
	}
	return 0
}

// span returns the items with sequence numbers in (lo, hi], oldest
// first, and how many of that range are lost: overwritten by a later
// lap, or claimed but not yet published. A slot is taken only when it
// holds exactly the sequence number the scan expects, so the result is
// in order and never contains an item outside the range even when
// writers lap the ring mid-scan.
func (r *ring[T]) span(lo, hi uint64) (items []T, lost uint64) {
	if hi <= lo {
		return nil, 0
	}
	size := uint64(len(r.slots))
	first := lo
	if cur := r.seq.Load(); cur > size && first < cur-size {
		first = cur - size
	}
	for i := first; i < hi; i++ {
		if p := r.slots[i%size].Load(); p != nil && p.seq == i+1 {
			items = append(items, p.v)
		}
	}
	return items, hi - lo - uint64(len(items))
}
