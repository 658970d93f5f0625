package stablehash_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/vcity"
	"repro/internal/vfs"
	"repro/internal/video"
)

// TestPinnedOutputs pins, for each package that hashes through
// stablehash, one output computed before the package existed, when each
// spelled FNV-1a and splitmix64 out itself. A change here moves shard
// assignments, trace IDs, seeds or replica placement.
func TestPinnedOutputs(t *testing.T) {
	plan := &stream.FaultPlan{Seed: 1, Camera: "cam-0", DropRate: 0.5, CorruptRate: 1}
	var drops uint64
	for i := 0; i < 64; i++ {
		if plan.DropPacket(i) {
			drops |= 1 << i
		}
	}
	corrupt, _ := plan.CorruptPacket(3)

	dir := t.TempDir()
	store, err := vfs.NewDistributed(dir, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var homes []int
	for _, name := range []string{"a", "manifest.json", "traffic-000.vrmf", "result-Q1-000-out.vrmf"} {
		if err := store.Write(name, nil); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < store.Nodes(); n++ {
			if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("node%d", n), name)); err == nil {
				homes = append(homes, n)
			}
		}
	}

	det := detect.NewYOLO(detect.ProfileSynthetic, 3)
	det.CostPasses = 0
	f := video.NewFrame(16, 16)
	f.Index = 5
	dets := det.Detect(f, "traffic-003", []vcity.Observation{{Box: geom.Rect{MinX: 10, MinY: 20, MaxX: 70, MaxY: 60}, Visibility: 1}})
	var classes []string
	for _, d := range dets {
		classes = append(classes, d.Class)
	}

	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"shard.Partition(Q5, 8, 3)", fmt.Sprint(shard.Partition(queries.Q5, 8, 3)), "[[3] [0 2 4 5 6 7] [1]]"},
		{"metrics.InstanceTraceID(42, Q1, 0)", uint64(metrics.InstanceTraceID(42, "Q1", 0)), uint64(350587979164702899)},
		{"metrics.BatchTraceID(42, Q1)", uint64(metrics.BatchTraceID(42, "Q1")), uint64(14413788940379588415)},
		{"metrics.RunTraceID(42)", uint64(metrics.RunTraceID(42)), uint64(16239707572940805204)},
		{"vcity.RNG.Uint64", vcity.NewRNG(7).Uint64(), uint64(7191089600892374487)},
		{"vcity.RNG.Split", vcity.NewRNG(7).Split("tiles").Uint64(), uint64(14474379119328492891)},
		{"FaultPlan drops", drops, uint64(0x57329b921c530cc2)},
		{"FaultPlan corrupt position", corrupt, 1796446353},
		{"vfs.Distributed homes", fmt.Sprint(homes), "[1 4 1 4]"},
		{"detect classes", fmt.Sprint(classes), "[Vehicle Vehicle Pedestrian Pedestrian]"},
		{"detect first box", fmt.Sprintf("%.9f", dets[0].Box.MinX), "11.045767831"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.what, c.got, c.want)
		}
	}
}
