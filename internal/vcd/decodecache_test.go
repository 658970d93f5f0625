package vcd

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/video"
)

func cacheTestVideo(n, w, h int, seed byte) *video.Video {
	v := video.NewVideo(30)
	for i := 0; i < n; i++ {
		f := video.NewFrame(w, h)
		for j := range f.Y {
			f.Y[j] = seed + byte(i+j)
		}
		v.Append(f)
	}
	return v
}

// windowFill serves cache fills by slicing a prebuilt source video, the
// test stand-in for a range decode.
func windowFill(src *video.Video) func(lo, hi int) (*video.Video, error) {
	return func(lo, hi int) (*video.Video, error) {
		return &video.Video{FPS: src.FPS, Frames: src.Frames[lo:hi]}, nil
	}
}

// noAlign is the identity seed alignment (every frame a keyframe).
func noAlign(i int) int { return i }

// resident reports whether a filled full-frame window covers frames
// [lo, hi) of name, without touching LRU order or counters.
func resident(c *decodedCache, name string, lo, hi int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries[name] {
		if e.mask == 0 && e.covers(lo, hi) && e.filled() {
			return true
		}
	}
	return false
}

func TestDecodedCacheSingleFlight(t *testing.T) {
	c := newDecodedCache(1 << 30)
	var decodes atomic.Int64
	src := cacheTestVideo(4, 32, 16, 7)

	const callers = 16
	var wg sync.WaitGroup
	results := make([]*video.Video, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.acquire("in", 0, 4, 0, noAlign, func(lo, hi int) (*video.Video, error) {
				decodes.Add(1)
				return src, nil
			})
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			results[i] = v
		}(i)
	}
	wg.Wait()

	if got := decodes.Load(); got != 1 {
		t.Fatalf("decode ran %d times, want 1", got)
	}
	st := c.stats()
	if st.Hits != callers-1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want %d hits / 1 miss", st, callers-1)
	}
	if st.FramesRequested != callers*4 || st.FramesDecoded != 4 {
		t.Fatalf("frames = %d requested / %d decoded, want %d / 4",
			st.FramesRequested, st.FramesDecoded, callers*4)
	}
	for i, v := range results {
		if len(v.Frames) != 4 {
			t.Fatalf("caller %d: %d frames, want 4", i, len(v.Frames))
		}
		// Views must not share Frame headers (index stamping would race).
		if v.Frames[0] == src.Frames[0] {
			t.Fatalf("caller %d: view shares frame header with source", i)
		}
		// But plane storage is shared — that is the point of the cache.
		if &v.Frames[0].Y[0] != &src.Frames[0].Y[0] {
			t.Fatalf("caller %d: view copied plane storage", i)
		}
	}
}

func TestDecodedCacheWindowHitAndAlignment(t *testing.T) {
	src := cacheTestVideo(12, 32, 16, 3)
	c := newDecodedCache(1 << 30)
	align4 := func(i int) int { return i - i%4 } // GOP-4 keyframe alignment

	v, err := c.acquire("in", 6, 10, 0, align4, windowFill(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Frames) != 4 || &v.Frames[0].Y[0] != &src.Frames[6].Y[0] {
		t.Fatalf("window view wrong: %d frames", len(v.Frames))
	}
	// The stored window is keyframe-aligned [4, 10): requests inside it
	// hit without decoding, including the seed run frames.
	if _, err := c.acquire("in", 4, 9, 0, align4, windowFill(src)); err != nil {
		t.Fatal(err)
	}
	st := c.stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.FramesRequested != 4+5 || st.FramesDecoded != 6 {
		t.Fatalf("frames = %d requested / %d decoded, want 9 / 6",
			st.FramesRequested, st.FramesDecoded)
	}
	// A window outside misses again.
	if _, err := c.acquire("in", 0, 2, 0, align4, windowFill(src)); err != nil {
		t.Fatal(err)
	}
	if st := c.stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2", st.Misses)
	}
}

func TestDecodedCacheWindowCoalescing(t *testing.T) {
	src := cacheTestVideo(12, 32, 16, 5)
	c := newDecodedCache(1 << 30)
	fill := windowFill(src)

	mustAcquire := func(lo, hi int) *video.Video {
		t.Helper()
		v, err := c.acquire("in", lo, hi, 0, noAlign, fill)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Frames) != hi-lo {
			t.Fatalf("[%d, %d): %d frames", lo, hi, len(v.Frames))
		}
		for i, f := range v.Frames {
			if &f.Y[0] != &src.Frames[lo+i].Y[0] {
				t.Fatalf("[%d, %d): frame %d maps to wrong source frame", lo, hi, i)
			}
		}
		return v
	}

	mustAcquire(0, 4)
	mustAcquire(8, 12) // disjoint: two resident windows
	c.mu.Lock()
	nwin := len(c.entries["in"])
	c.mu.Unlock()
	if nwin != 2 {
		t.Fatalf("resident windows = %d, want 2", nwin)
	}
	// A request overlapping both coalesces everything into one union
	// window [0, 12) — only the request itself is decoded.
	mustAcquire(2, 10)
	c.mu.Lock()
	nwin = len(c.entries["in"])
	var lo, hi int
	if nwin == 1 {
		lo, hi = c.entries["in"][0].lo, c.entries["in"][0].hi
	}
	used := c.used
	c.mu.Unlock()
	if nwin != 1 || lo != 0 || hi != 12 {
		t.Fatalf("after coalesce: %d windows [%d, %d), want 1 window [0, 12)", nwin, lo, hi)
	}
	if want := videoBytes(src); used != want {
		t.Fatalf("used = %d after coalesce, want %d", used, want)
	}
	// The union serves any sub-window without further decode.
	mustAcquire(0, 12)
	st := c.stats()
	if st.Misses != 3 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 3 misses / 1 hit", st)
	}
	if st.FramesDecoded != 4+4+8 {
		t.Fatalf("frames decoded = %d, want 16", st.FramesDecoded)
	}
}

func TestDecodedCacheLRUEviction(t *testing.T) {
	one := cacheTestVideo(1, 32, 16, 0) // 32*16*1.5 = 768 bytes per video
	per := videoBytes(one)
	c := newDecodedCache(2 * per) // room for two entries

	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("in%d", i)
		if _, err := c.acquire(name, 0, 1, 0, noAlign, func(lo, hi int) (*video.Video, error) {
			return cacheTestVideo(1, 32, 16, byte(i)), nil
		}); err != nil {
			t.Fatalf("acquire %s: %v", name, err)
		}
	}
	// in0 was least recently used and must be gone.
	if resident(c, "in0", 0, 1) {
		t.Fatal("in0 survived eviction")
	}
	if !resident(c, "in1", 0, 1) {
		t.Fatal("in1 evicted, want resident")
	}
	if !resident(c, "in2", 0, 1) {
		t.Fatal("in2 evicted, want resident")
	}
	st := c.stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if c.used > c.budget {
		t.Fatalf("used %d exceeds budget %d after eviction", c.used, c.budget)
	}
}

func TestDecodedCachePinnedWindowSurvivesEviction(t *testing.T) {
	one := cacheTestVideo(1, 32, 16, 0)
	per := videoBytes(one)
	c := newDecodedCache(per) // room for exactly one entry

	c.pin("pinned", 0, 1)
	if _, err := c.acquire("pinned", 0, 1, 0, noAlign, func(lo, hi int) (*video.Video, error) {
		return cacheTestVideo(1, 32, 16, 1), nil
	}); err != nil {
		t.Fatal(err)
	}
	// Filling a second entry overflows the budget, but the window
	// overlapping the pin must not be the victim.
	if _, err := c.acquire("other", 0, 1, 0, noAlign, func(lo, hi int) (*video.Video, error) {
		return cacheTestVideo(1, 32, 16, 2), nil
	}); err != nil {
		t.Fatal(err)
	}
	if !resident(c, "pinned", 0, 1) {
		t.Fatal("pinned entry evicted")
	}
	c.unpin("pinned", 0, 1)
	// Now a third fill can evict it.
	if _, err := c.acquire("third", 0, 1, 0, noAlign, func(lo, hi int) (*video.Video, error) {
		return cacheTestVideo(1, 32, 16, 3), nil
	}); err != nil {
		t.Fatal(err)
	}
	if resident(c, "pinned", 0, 1) {
		t.Fatal("unpinned entry survived eviction pressure")
	}
}

func TestDecodedCachePinProtectsOverlapOnly(t *testing.T) {
	src := cacheTestVideo(8, 32, 16, 0)
	per := videoBytes(&video.Video{FPS: 30, Frames: src.Frames[:4]})
	c := newDecodedCache(per) // room for one 4-frame window

	c.pin("in", 2, 3) // protects any window overlapping frame 2
	if _, err := c.acquire("in", 0, 4, 0, noAlign, windowFill(src)); err != nil {
		t.Fatal(err)
	}
	// A disjoint window of the same input overflows the budget; the
	// pinned-overlap window survives and the new one is kept (soft
	// budget exempts the just-filled entry).
	if _, err := c.acquire("in", 4, 8, 0, noAlign, windowFill(src)); err != nil {
		t.Fatal(err)
	}
	if !resident(c, "in", 0, 4) {
		t.Fatal("pin-overlapping window evicted")
	}
	// The disjoint window is unprotected: the next fill evicts it.
	if _, err := c.acquire("other", 0, 4, 0, noAlign, windowFill(src)); err != nil {
		t.Fatal(err)
	}
	if resident(c, "in", 4, 8) {
		t.Fatal("non-overlapping window survived eviction pressure")
	}
	if !resident(c, "in", 0, 4) {
		t.Fatal("pin-overlapping window evicted under later pressure")
	}
}

func TestDecodedCacheFailedFillRetries(t *testing.T) {
	c := newDecodedCache(1 << 20)
	boom := errors.New("decode failed")
	if _, err := c.acquire("in", 0, 2, 0, noAlign, func(lo, hi int) (*video.Video, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("first acquire err = %v, want %v", err, boom)
	}
	// The failure is not cached: the next acquire re-runs decode.
	v, err := c.acquire("in", 0, 2, 0, noAlign, func(lo, hi int) (*video.Video, error) {
		return cacheTestVideo(2, 32, 16, 5), nil
	})
	if err != nil {
		t.Fatalf("retry acquire: %v", err)
	}
	if len(v.Frames) != 2 {
		t.Fatalf("retry frames = %d, want 2", len(v.Frames))
	}
	if st := c.stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (failed fill + retry)", st.Misses)
	}
}

func TestDecodedCacheFailedFillRetriesWhilePinned(t *testing.T) {
	c := newDecodedCache(1 << 20)
	c.pin("in", 0, 1)
	boom := errors.New("decode failed")
	if _, err := c.acquire("in", 0, 1, 0, noAlign, func(lo, hi int) (*video.Video, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("first acquire err = %v, want %v", err, boom)
	}
	if _, err := c.acquire("in", 0, 1, 0, noAlign, func(lo, hi int) (*video.Video, error) {
		return cacheTestVideo(1, 32, 16, 5), nil
	}); err != nil {
		t.Fatalf("pinned retry acquire: %v", err)
	}
	c.unpin("in", 0, 1)
	if !resident(c, "in", 0, 1) {
		t.Fatal("successful retry not resident")
	}
}

func TestDecodedCacheHitRate(t *testing.T) {
	c := newDecodedCache(1 << 20)
	fill := func(lo, hi int) (*video.Video, error) { return cacheTestVideo(1, 32, 16, 1), nil }
	if _, err := c.acquire("a", 0, 1, 0, noAlign, fill); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.acquire("a", 0, 1, 0, noAlign, fill); err != nil {
			t.Fatal(err)
		}
	}
	st := c.stats()
	if got := st.HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
}
