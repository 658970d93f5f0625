package video

import (
	"sync"
	"sync/atomic"
)

// Package-wide pool counters: FramePools are created ad hoc throughout
// the pipeline (the registry's one per resolution, one per VCG render
// worker), so recycling effectiveness is tracked across all of them and
// surfaced as the frame-pool reuse rate in run telemetry. The counters
// are plain atomics — video cannot import the metrics package (metrics
// imports video) — and cost one uncontended add per Get/Put.
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
//
// The decoder's frames and the query operators' outputs share one
// registry of FramePools, one per resolution, behind GetFrame and
// PutFrame; a private FramePool is for a loop that owns its frames
// end to end (a VCG render worker).
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
// pool; nil is ignored. The caller must not use f after Put: race
// builds overwrite its samples (poison_race.go), so a reader that kept
// it reads a constant and the output goldens say so.
func (p *FramePool) Put(f *Frame) {
	if f == nil || f.W != p.w || f.H != p.h {
		return
	}
	if raceBuild {
		f.Fill(0xA5, 0x5A, 0xA5) // poison
	}
	poolPuts.Add(1)
	p.pool.Put(f)
}

// registry maps a resolution to its FramePool. Resolutions are few and
// created once, so the map is copied on insert and read without a lock:
// a lookup neither blocks nor allocates, which keeps a steady-state
// decode at zero allocations.
var registry struct {
	mu    sync.Mutex
	pools atomic.Pointer[map[[2]int]*FramePool]
}

// poolFor returns the registry's pool of w×h frames, creating it.
func poolFor(w, h int) *FramePool {
	key := [2]int{w, h}
	if m := registry.pools.Load(); m != nil {
		if p := (*m)[key]; p != nil {
			return p
		}
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	old := registry.pools.Load()
	if old != nil && (*old)[key] != nil {
		return (*old)[key]
	}
	m := make(map[[2]int]*FramePool, 1)
	if old != nil {
		for k, p := range *old {
			m[k] = p
		}
	}
	p := NewFramePool(w, h)
	m[key] = p
	registry.pools.Store(&m)
	return p
}

// GetFrame returns a w×h frame from the registry with unspecified
// contents and Index 0: only code that writes every luma and chroma
// sample may use it.
func GetFrame(w, h int) *Frame {
	f := poolFor(w, h).Get()
	f.Index = 0
	return f
}

// PutFrame recycles f into the registry's pool of its resolution; nil is
// ignored. Recycle only a frame the caller owns exclusively — never one
// a cache, a writer or another frame's planes still reference — and do
// not use it afterwards.
func PutFrame(f *Frame) {
	if f != nil {
		poolFor(f.W, f.H).Put(f)
	}
}
