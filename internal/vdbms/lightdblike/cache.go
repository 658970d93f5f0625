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
type decodeCache struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*cacheEntry
	order   []uint64 // LRU order: oldest first
}

// cacheEntry holds the decoded frame window [lo, hi) of one input;
// frames carry their absolute stream indices.
type cacheEntry struct {
	v      *video.Video
	lo, hi int
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

// get returns frames [lo, hi) of the input with key k when the cached
// window covers them. The returned video's frames are shared and
// read-only.
func (c *decodeCache) get(k uint64, lo, hi int) (*video.Video, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok || e.lo > lo || hi > e.hi {
		return nil, false
	}
	c.touch(k)
	return &video.Video{FPS: e.v.FPS, Frames: e.v.Frames[lo-e.lo : hi-e.lo]}, true
}

// put memoizes the decoded window [lo, hi) of the input with key k. A
// resident entry is replaced only when the new window covers it, so a
// narrow decode never shadows a wider one.
func (c *decodeCache) put(k uint64, v *video.Video, lo, hi int) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		if lo <= e.lo && e.hi <= hi {
			e.v, e.lo, e.hi = v, lo, hi
		}
		c.touch(k)
		return
	}
	for len(c.entries) >= c.cap && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[k] = &cacheEntry{v: v, lo: lo, hi: hi}
	c.order = append(c.order, k)
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
