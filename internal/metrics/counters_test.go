package metrics

import (
	"sync"
	"testing"
)

// TestSetConcurrent: a scoped set counts its own share exactly under
// concurrency, and every Add reaches the process registry too.
func TestSetConcurrent(t *testing.T) {
	var c Set
	base := reg.vals[CacheHits].Load()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(CacheHits, 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(CacheHits); got != 8000 {
		t.Fatalf("Set.Value = %d, want 8000", got)
	}
	if got := reg.vals[CacheHits].Load() - base; got != 8000 {
		t.Fatalf("process registry advanced by %d, want 8000", got)
	}
}

func TestCacheStats(t *testing.T) {
	var c Set
	c.Add(CacheHits, 3)
	c.Add(CacheMisses, 1)
	c.Add(CacheEvictions, 2)
	c.Add(ShardReassignments, 9) // not a cache row
	s := c.CacheStats()
	if (s != CacheStats{Hits: 3, Misses: 1, Evictions: 2}) {
		t.Fatalf("CacheStats() = %+v", s)
	}
	if got := s.HitRate(); got != 0.75 {
		t.Fatalf("HitRate() = %g, want 0.75", got)
	}
	if got := (CacheStats{}).HitRate(); got != 0 {
		t.Fatalf("empty HitRate() = %g, want 0", got)
	}
	s.Merge(CacheStats{Hits: 1, Misses: 1, FramesDecoded: 7})
	if (s != CacheStats{Hits: 4, Misses: 2, Evictions: 2, FramesDecoded: 7}) {
		t.Fatalf("Merge() = %+v", s)
	}
}
