package shard_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/queries"
	"repro/internal/shard"
	"repro/internal/vcd"
	"repro/internal/vcg"
	"repro/internal/vcity"
	"repro/internal/vfs"
	"repro/internal/video"
)

// raceBuild is set by race_test.go: sync.Pool drops a quarter of its
// Puts under -race, so recycling pins there allow for the drops.
var raceBuild bool

// TestConversationCloseRecyclesDecodedFrames: a shard worker hands its
// decoded cache's frames back to the frame registry when its
// conversation ends, so the workers of the next job — which load the
// dataset and build a cache anew, as every vrserved job does — decode
// into them: the second of two identical jobs allocates about no fresh
// frame per decoded frame.
func TestConversationCloseRecyclesDecodedFrames(t *testing.T) {
	store := vfs.NewMemory()
	if _, err := vcg.Generate(vcity.Hyperparams{
		Scale: 1, Width: 96, Height: 64, Duration: 1, FPS: 15, Seed: 3,
	}, vcg.Options{QP: 22}, store); err != nil {
		t.Fatal(err)
	}
	// Two collections empty the registry of what earlier tests recycled;
	// then none runs, so what the first job recycles stays for the
	// second.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One P: sync.Pool keeps one Put per P in a private slot that a Get
	// on another P cannot steal, so at two or more a frame the first job
	// recycled can sit out of the second job's reach and be allocated
	// fresh (one in 45 decoded is already over the bound).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	job := func() (decoded, fresh int64) {
		_, _, before := video.PoolCounts()
		report, counters, err := shard.Run(context.Background(), shard.Plan{
			Store:  store,
			System: shard.SystemSpec{Name: "lightdblike"},
			Scale:  1,
			// Q5's outputs are smaller than its input: the result writer
			// recycles none into the decoder's pool, so what the second
			// job reuses is what the first one's caches held.
			Opt: vcd.Options{Queries: []queries.QueryID{queries.Q5}, InstancesPerScale: 4, Seed: 7, Workers: 1, Mode: vcd.StreamingMode},
		}, shard.Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if counters.WorkerFailures != 0 {
			t.Fatalf("run degraded: %+v", *counters)
		}
		_, _, after := video.PoolCounts()
		return report.DecodedCache.FramesDecoded, after - before
	}
	if decoded, fresh := job(); fresh < decoded {
		t.Fatalf("first job: %d fresh frames for %d decoded: the registry was not empty", fresh, decoded)
	}
	decoded, fresh := job()
	perFrame := float64(fresh) / float64(decoded)
	t.Logf("second job: %d frames decoded, %.3f fresh frames per decoded frame", decoded, perFrame)
	bound := 0.02
	if raceBuild {
		bound = 0.5
	}
	if decoded == 0 || perFrame > bound {
		t.Errorf("second job allocates %.3f fresh frames per decoded frame, want <= %.2f", perFrame, bound)
	}
}
