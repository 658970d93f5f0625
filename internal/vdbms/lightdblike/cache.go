package lightdblike

import (
	"hash/fnv"
	"sync"

	"repro/internal/vdbms"
	"repro/internal/video"
)

// decodeCache memoizes recently decoded inputs, keyed by content
// identity (a hash over the encoded payload), with LRU eviction. The
// cache is what lets repeated inputs (duplicated corpora) skip decode
// work entirely. Entries carry the frame window they hold — with
// range-aware decode an input may have been only partially decoded, and
// a partial window must never satisfy a later wider request.
//
// The cache owns its frames. An entry that is evicted or replaced is
// retired, and its frames go back to video's frame-pool registry as soon
// as no evaluation pins it (get … release), so at steady state the
// streaming branch decodes into the frames the cache let go.
type decodeCache struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*cacheEntry
	order   []uint64 // LRU order: oldest first
}

// cacheEntry holds the decoded frame window [lo, hi) of one input;
// frames carry their absolute stream indices.
type cacheEntry struct {
	v       *video.Video
	lo, hi  int
	pins    int  // gets not yet released
	retired bool // evicted or replaced: recycled at the last release
}

func newDecodeCache(capacity int) *decodeCache {
	return &decodeCache{cap: capacity, entries: make(map[uint64]*cacheEntry)}
}

// cacheKey hashes the input's encoded content. The first and last access
// units plus the payload size identify a video's content for caching
// purposes without hashing megabytes. An evaluation computes it once
// and hands it to both get and put.
func cacheKey(in *vdbms.Input) uint64 {
	h := fnv.New64a()
	fs := in.Encoded.Frames
	if len(fs) > 0 {
		h.Write(fs[0].Data)
		h.Write(fs[len(fs)-1].Data)
	}
	var sz [8]byte
	total := in.Encoded.Size()
	for i := range sz {
		sz[i] = byte(total >> (8 * i))
	}
	h.Write(sz[:])
	return h.Sum64()
}

// get returns the entry of the input with key k when its window covers
// [lo, hi), pinned: its frames stay valid and read-only until the
// caller hands the entry to release.
func (c *decodeCache) get(k uint64, lo, hi int) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok || e.lo > lo || hi > e.hi {
		return nil, false
	}
	c.touch(k)
	e.pins++
	return e, true
}

// frames returns the entry's frames [lo, hi), a window get covered.
func (e *cacheEntry) frames(lo, hi int) []*video.Frame {
	return e.v.Frames[lo-e.lo : hi-e.lo]
}

// release unpins an entry obtained from get; the caller must not use its
// frames afterwards.
func (c *decodeCache) release(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.pins--
	c.recycleIfDone(e)
}

// put memoizes the decoded window [lo, hi) of the input with key k and
// takes ownership of its frames. A resident entry is replaced only when
// the new window covers it, so a narrow decode never shadows a wider
// one; a window that replaces nothing is recycled at once.
func (c *decodeCache) put(k uint64, v *video.Video, lo, hi int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := &cacheEntry{v: v, lo: lo, hi: hi}
	if e, ok := c.entries[k]; ok {
		c.touch(k)
		if lo <= e.lo && e.hi <= hi {
			c.entries[k], n = n, e
		}
		c.retire(n) // the window that lost
		return
	}
	if c.cap <= 0 {
		c.retire(n)
		return
	}
	for len(c.entries) >= c.cap && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		c.retire(c.entries[oldest])
		delete(c.entries, oldest)
	}
	c.entries[k] = n
	c.order = append(c.order, k)
}

// retire marks an entry that left the map; its frames are recycled once
// nothing pins it. Callers hold the lock.
func (c *decodeCache) retire(e *cacheEntry) {
	e.retired = true
	c.recycleIfDone(e)
}

// recycleIfDone hands a retired, unpinned entry's frames to the
// registry, once. Callers hold the lock.
func (c *decodeCache) recycleIfDone(e *cacheEntry) {
	if !e.retired || e.pins > 0 || e.v == nil {
		return
	}
	recycleFrames(e.v.Frames)
	e.v = nil
}

// recycleFrames returns frames the caller owns exclusively to the
// registry.
func recycleFrames(frames []*video.Frame) {
	for _, f := range frames {
		video.PutFrame(f)
	}
}

// touch moves k to the back of the LRU order. Callers hold the lock.
func (c *decodeCache) touch(k uint64) {
	for i, o := range c.order {
		if o == k {
			c.order = append(c.order[:i], c.order[i+1:]...)
			c.order = append(c.order, k)
			return
		}
	}
}
