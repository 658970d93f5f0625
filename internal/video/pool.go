package video

import (
	"sync"
	"sync/atomic"
)

// Package-wide pool counters: FramePools are created ad hoc throughout
// the pipeline (one per camera in the VCG, one per fused operator), so
// recycling effectiveness is tracked across all of them and surfaced as
// the frame-pool reuse rate in run telemetry. The counters are plain
// atomics — video cannot import the metrics package (metrics imports
// video) — and cost one uncontended add per Get/Put.
var (
	poolGets   atomic.Int64
	poolPuts   atomic.Int64
	poolAllocs atomic.Int64
)

// PoolCounts returns the cumulative FramePool activity across all
// pools: Gets issued, Puts accepted, and Allocs — Gets that had to
// allocate a fresh frame instead of recycling one.
func PoolCounts() (gets, puts, allocs int64) {
	return poolGets.Load(), poolPuts.Load(), poolAllocs.Load()
}

// FramePool recycles Frames of a single resolution, relieving the
// allocation churn of render→encode pipelines where every frame would
// otherwise allocate three fresh planes. Frames returned by Get carry
// unspecified pixel content and Index — callers must overwrite every
// sample (renderers do). FramePool is safe for concurrent use.
type FramePool struct {
	w, h int
	pool sync.Pool
}

// NewFramePool returns a pool of w×h frames.
func NewFramePool(w, h int) *FramePool {
	p := &FramePool{w: w, h: h}
	p.pool.New = func() any {
		poolAllocs.Add(1)
		return newFrameUnfilled(w, h)
	}
	return p
}

// Get returns a frame of the pool's dimensions with unspecified
// contents.
func (p *FramePool) Get() *Frame {
	poolGets.Add(1)
	return p.pool.Get().(*Frame)
}

// Put returns a frame to the pool for reuse. Frames of foreign
// dimensions (e.g. after a Crop) are dropped rather than poisoning the
// pool; nil is ignored. The caller must not use f after Put.
func (p *FramePool) Put(f *Frame) {
	if f == nil || f.W != p.w || f.H != p.h {
		return
	}
	poolPuts.Add(1)
	p.pool.Put(f)
}
