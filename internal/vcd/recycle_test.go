package vcd

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/queries"
	"repro/internal/vdbms/lightdblike"
	"repro/internal/video"
)

// raceBuild is set by race_test.go: sync.Pool drops a quarter of its
// Puts under -race, so recycling pins there allow for the drops.
var raceBuild bool

// TestRunnerCloseRecyclesDecodedFrames: Close hands every frame resident
// in the runner's decoded cache to the registry exactly once and keeps
// the cache counters, and a second Run on the same Dataset decodes into
// those frames: it allocates about no fresh frame. Q5's outputs are
// smaller than its input, so the result writer recycles none of them
// into the decoder's pool: the frames the second run reuses are the
// cache's.
func TestRunnerCloseRecyclesDecodedFrames(t *testing.T) {
	// Two collections empty the registry of what earlier tests recycled;
	// then none runs, so the frames Close recycles stay for the second
	// run.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One P: sync.Pool keeps one Put per P in a private slot that a Get
	// on another P cannot steal, so at two or more a frame Close recycled
	// can sit out of the decode-ahead goroutine's reach and be allocated
	// fresh.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ds := testDataset(t)
	opt := Options{Queries: []queries.QueryID{queries.Q5}, InstancesPerScale: 4, Seed: 5, Workers: 1, Mode: StreamingMode}
	r, err := NewBatchRunner(ds, lightdblike.New(lightdblike.Options{}), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPlaced(context.Background(), r.sys, ds.Manifest.Scale, r.opt, r); err != nil {
		t.Fatal(err)
	}
	resident, distinct := 0, map[*video.Frame]bool{}
	for _, list := range r.cache.entries {
		for _, e := range list {
			resident += len(e.video.Frames)
			for _, f := range e.video.Frames {
				distinct[f] = true
			}
		}
	}
	if resident == 0 || len(distinct) != resident {
		t.Fatalf("%d resident frames, %d distinct", resident, len(distinct))
	}
	stats := r.CacheStats()
	_, before, _ := video.PoolCounts()
	r.Close()
	r.Close()
	if _, after, _ := video.PoolCounts(); after-before != int64(resident) {
		t.Errorf("Close recycled %d frames, want the %d resident", after-before, resident)
	}
	if got := r.CacheStats(); got != stats {
		t.Errorf("Close changed the cache counters: %+v, want %+v", got, stats)
	}

	_, _, allocs := video.PoolCounts()
	rep, err := Run(ds, lightdblike.New(lightdblike.Options{}), opt)
	if err != nil {
		t.Fatal(err)
	}
	_, _, after := video.PoolCounts()
	decoded := rep.DecodedCache.FramesDecoded
	fresh := float64(after-allocs) / float64(decoded)
	t.Logf("second run: %d frames decoded, %.3f fresh frames per decoded frame", decoded, fresh)
	bound := 0.02
	if raceBuild {
		bound = 0.5
	}
	if decoded == 0 || fresh > bound {
		t.Errorf("second run allocates %.3f fresh frames per decoded frame, want <= %.2f", fresh, bound)
	}
}

// TestResultWriterRecyclesOwnedFrames: a frame written through Open —
// the engine hands it over — goes back to the registry once encoded,
// unless the instance is sampled for validation, which keeps it; the
// frames of a video handed to Emit stay the engine's, untouched.
func TestResultWriterRecyclesOwnedFrames(t *testing.T) {
	puts := func() int64 { _, p, _ := video.PoolCounts(); return p }
	for _, tc := range []struct {
		name           string
		sampled, emit  bool
		wantRecyclings int
	}{
		{"Open", false, false, 3},
		{"Open sampled", true, false, 0},
		{"Emit", false, true, 0},
		{"Emit sampled", true, true, 0},
	} {
		sink := &resultSink{opt: Options{Mode: StreamingMode}}
		if tc.sampled {
			sink.capture = &InstanceValidation{Outputs: map[string]*video.Video{}}
		}
		written := make([]*video.Frame, 3)
		for i := range written {
			written[i] = video.GetFrame(32, 32)
			written[i].Fill(16, 100, 200)
		}
		before := puts()
		if tc.emit {
			if err := sink.Emit("out", &video.Video{FPS: 15, Frames: written}); err != nil {
				t.Fatal(err)
			}
		} else {
			w, _ := sink.Open("out", 15)
			for _, f := range written {
				if err := w.Write(f); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if got := puts() - before; got != int64(tc.wantRecyclings) {
			t.Errorf("%s: %d frames recycled, want %d", tc.name, got, tc.wantRecyclings)
		}
		if tc.wantRecyclings > 0 {
			continue // recycled: race builds poisoned them
		}
		for i, f := range written {
			if f.Y[0] != 16 || f.U[0] != 100 || f.V[0] != 200 {
				t.Errorf("%s: kept frame %d reads %d/%d/%d", tc.name, i, f.Y[0], f.U[0], f.V[0])
			}
		}
	}
}
