package vcd

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/video"
)

// DefaultDecodedCacheBytes is the decoded-input cache budget when the
// caller does not set one.
const DefaultDecodedCacheBytes = 256 << 20

// decodedCache is the driver's shared decoded-input cache: decoded
// frame windows keyed by (input ID, interval, tile set), byte-budgeted
// with LRU eviction and protected by window-granular ref-counted pins.
// A lookup hits when any resident window covers the requested interval
// and its tile mask covers the requested tiles (a full-frame window,
// mask 0, covers every tile set); a miss decodes the keyframe-aligned
// request and coalesces it with every same-mask resident window it
// overlaps into one union entry, so an input's windows never fragment
// into overlapping copies. Fills are single-flight — concurrent
// requests covered by an in-flight window wait for it instead of
// decoding — and every acquire returns a view (fresh frame headers over
// shared plane storage) so consumers never write to each other's
// frames.
type decodedCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	tick    int64
	entries map[string][]*decodedEntry
	pins    map[string][]*pinWindow

	// counters is this cache's share of the decoded-cache rows; every
	// Add also lands in the process registry, so live snapshots (the
	// -debug-addr listener) and interval telemetry see cache behavior
	// without a handle on the current run's cache.
	counters metrics.Set
}

// decodedEntry is one resident frame window [lo, hi) of an input. Once
// done is closed, video/err/bytes are immutable: waiters read them
// after <-done without the lock. video holds exactly hi−lo frames in
// stream order (Frame.Index carries absolute indices). mask is the tile
// selection the window was decoded with: 0 means full frames (every
// pixel valid); a non-zero bit t means tile t's region is valid and the
// rest is undefined. A failed fill is never resurrected — a retry
// creates a fresh entry.
type decodedEntry struct {
	name   string
	lo, hi int
	mask   uint64
	done   chan struct{}
	video  *video.Video
	bytes  int64
	err    error
	lru    int64
}

// pinWindow is a ref-counted frame interval referenced by executing
// instances: resident windows overlapping a pinned interval of their
// input are never evicted.
type pinWindow struct {
	lo, hi int
	count  int
}

func newDecodedCache(budget int64) *decodedCache {
	if budget <= 0 {
		budget = DefaultDecodedCacheBytes
	}
	return &decodedCache{
		budget:  budget,
		entries: make(map[string][]*decodedEntry),
		pins:    make(map[string][]*pinWindow),
	}
}

func (e *decodedEntry) covers(lo, hi int) bool   { return e.lo <= lo && hi <= e.hi }
func (e *decodedEntry) overlaps(lo, hi int) bool { return e.lo < hi && lo < e.hi }

// maskCovers reports whether a resident window decoded with tile mask
// have serves a request for tile mask want. Full-frame windows (mask 0)
// serve everything; a tiled window serves exactly the tile requests
// whose bits it contains — never a full-frame request, whose pixels
// outside the window's tiles are undefined.
func maskCovers(have, want uint64) bool {
	return have == 0 || (want != 0 && want&^have == 0)
}

// filled reports whether the entry's fill completed successfully.
// Callers hold the lock.
func (e *decodedEntry) filled() bool {
	select {
	case <-e.done:
		return e.err == nil
	default:
		return false
	}
}

// failed reports whether the entry's fill completed with an error.
// Callers hold the lock.
func (e *decodedEntry) failed() bool {
	select {
	case <-e.done:
		return e.err != nil
	default:
		return false
	}
}

// acquire returns frames [lo, hi) of input name (lo < hi), decoding at
// most once across concurrent callers per window. mask selects the tile
// set the caller needs (0 = full frames); decode must produce frames
// whose mask-selected regions are valid. align maps the window start to
// its decode seed position — the governing keyframe — so stored windows
// begin on intra frames and the frames-decoded counter is exact. decode
// is called with the aligned window to reconstruct. The returned video
// is a per-caller view of exactly hi−lo frames; its plane storage is
// shared and must be treated as read-only.
func (c *decodedCache) acquire(name string, lo, hi int, mask uint64, align func(int) int, decode func(lo, hi int) (*video.Video, error)) (*video.Video, error) {
	c.counters.Add(metrics.CacheRequested, int64(hi-lo))
	c.mu.Lock()
	c.tick++
	if e := c.coveringLocked(name, lo, hi, mask); e != nil {
		// A covering fill finished or is in flight: either way this
		// caller skips a decode.
		e.lru = c.tick
		c.mu.Unlock()
		c.counters.Add(metrics.CacheHits, 1)
		<-e.done
		if e.err != nil {
			return nil, e.err
		}
		return viewRange(e.video, lo-e.lo, hi-e.lo), nil
	}
	// Miss: decode the keyframe-aligned request and coalesce it with
	// every same-mask resident window it overlaps into one union entry.
	// Absorbed entries leave the map now — concurrent requests they
	// covered route to the union and wait — and contribute their frames
	// to the union by pointer, so no pixels are copied or re-decoded.
	// Windows with a different tile mask are left alone: their frames
	// carry different valid regions, so pointer-stitching across masks
	// would mix them.
	alo := align(lo)
	ulo, uhi := alo, hi
	var absorbed []*decodedEntry
	kept := c.entries[name][:0]
	for _, e := range c.entries[name] {
		if e.mask == mask && e.filled() && e.overlaps(alo, hi) {
			if e.lo < ulo {
				ulo = e.lo
			}
			if e.hi > uhi {
				uhi = e.hi
			}
			absorbed = append(absorbed, e)
			c.used -= e.bytes
			continue
		}
		kept = append(kept, e)
	}
	e := &decodedEntry{name: name, lo: ulo, hi: uhi, mask: mask, done: make(chan struct{}), lru: c.tick}
	c.entries[name] = append(kept, e)
	c.mu.Unlock()
	c.counters.Add(metrics.CacheMisses, 1)
	metrics.DecodeInflight(1)

	v, err := decode(alo, hi)
	if err == nil {
		c.counters.Add(metrics.CacheDecoded, int64(hi-alo))
		v = stitchUnion(v, alo, absorbed, ulo, uhi)
	}
	c.mu.Lock()
	e.video, e.err = v, err
	if err == nil {
		e.bytes = videoBytes(v)
		c.used += e.bytes
		c.evictLocked(e)
	} else {
		// Failed fills vanish so a later acquire retries.
		c.removeLocked(e)
	}
	close(e.done)
	metrics.DecodeInflight(-1)
	metrics.CacheResident(c.used)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return viewRange(v, lo-ulo, hi-ulo), nil
}

// stitchUnion assembles the union window [ulo, uhi) from the freshly
// decoded frames (starting at absolute index alo) and the absorbed
// resident windows, sharing frame storage throughout. Every slot is
// covered: each absorbed window overlaps the fresh one, so the union
// has no interior gaps.
func stitchUnion(fresh *video.Video, alo int, absorbed []*decodedEntry, ulo, uhi int) *video.Video {
	if ulo == alo && uhi == alo+len(fresh.Frames) {
		return fresh
	}
	frames := make([]*video.Frame, uhi-ulo)
	for _, e := range absorbed {
		for i, f := range e.video.Frames {
			frames[e.lo+i-ulo] = f
		}
	}
	for i, f := range fresh.Frames {
		frames[alo+i-ulo] = f
	}
	return &video.Video{FPS: fresh.FPS, Frames: frames}
}

// coveringLocked returns an entry covering [lo, hi) and the requested
// tile mask whose fill succeeded or is still in flight.
func (c *decodedCache) coveringLocked(name string, lo, hi int, mask uint64) *decodedEntry {
	for _, e := range c.entries[name] {
		if e.covers(lo, hi) && maskCovers(e.mask, mask) && !e.failed() {
			return e
		}
	}
	return nil
}

// pin marks frames [lo, hi) of name as referenced by an executing
// instance: resident windows overlapping a pinned interval are never
// evicted, whether or not their fill has happened yet.
func (c *decodedCache) pin(name string, lo, hi int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.pins[name] {
		if p.lo == lo && p.hi == hi {
			p.count++
			return
		}
	}
	c.pins[name] = append(c.pins[name], &pinWindow{lo: lo, hi: hi, count: 1})
}

// unpin releases one pin on frames [lo, hi) of name.
func (c *decodedCache) unpin(name string, lo, hi int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wins := c.pins[name]
	for i, p := range wins {
		if p.lo != lo || p.hi != hi {
			continue
		}
		p.count--
		if p.count <= 0 {
			wins[i] = wins[len(wins)-1]
			wins = wins[:len(wins)-1]
			if len(wins) == 0 {
				delete(c.pins, name)
			} else {
				c.pins[name] = wins
			}
		}
		return
	}
}

// pinnedLocked reports whether any pinned interval of the entry's input
// overlaps its window.
func (c *decodedCache) pinnedLocked(e *decodedEntry) bool {
	for _, p := range c.pins[e.name] {
		if p.lo < e.hi && e.lo < p.hi {
			return true
		}
	}
	return false
}

// evictLocked drops least-recently-used, unpinned, filled windows until
// the cache fits its budget. The just-filled entry keep is exempt so a
// single oversized window still caches (soft budget: when everything
// else is pinned the cache may transiently overflow).
func (c *decodedCache) evictLocked(keep *decodedEntry) {
	for c.used > c.budget {
		var victim *decodedEntry
		for _, list := range c.entries {
			for _, e := range list {
				if e == keep || !e.filled() || c.pinnedLocked(e) {
					continue
				}
				if victim == nil || e.lru < victim.lru {
					victim = e
				}
			}
		}
		if victim == nil {
			return
		}
		c.used -= victim.bytes
		c.removeLocked(victim)
		c.counters.Add(metrics.CacheEvictions, 1)
	}
}

// removeLocked detaches an entry from its input's window list.
func (c *decodedCache) removeLocked(victim *decodedEntry) {
	list := c.entries[victim.name]
	for i, e := range list {
		if e == victim {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(c.entries, victim.name)
	} else {
		c.entries[victim.name] = list
	}
}

// close hands every resident window's frames to video's frame registry,
// each exactly once — a union window holds the frames it absorbed, and
// no frame is in two resident windows — and empties the cache. Its
// counters stay, so stats still reads the run. The caller guarantees
// that no acquire is running and that no view is in use: PutFrame hands
// the planes every view of them shares to the next GetFrame. A window
// evicted or absorbed earlier is left to the garbage collector, since a
// view of it may have outlived it.
func (c *decodedCache) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, list := range c.entries {
		for _, e := range list {
			if e.filled() {
				for _, f := range e.video.Frames {
					video.PutFrame(f)
				}
			}
		}
	}
	clear(c.entries)
	c.used = 0
}

// stats snapshots the cache counters.
func (c *decodedCache) stats() metrics.CacheStats {
	return c.counters.CacheStats()
}

// viewRange returns a per-consumer view of frames [from, to) of a
// cached video: fresh Frame headers (so index stamping by one consumer
// never races another) over shared, read-only plane storage.
func viewRange(v *video.Video, from, to int) *video.Video {
	out := &video.Video{FPS: v.FPS, Frames: make([]*video.Frame, to-from)}
	for i := from; i < to; i++ {
		g := *v.Frames[i]
		out.Frames[i-from] = &g
	}
	return out
}

// videoBytes is the cache accounting size of a decoded video.
func videoBytes(v *video.Video) int64 {
	var n int64
	for _, f := range v.Frames {
		n += int64(len(f.Y) + len(f.U) + len(f.V))
	}
	return n
}
