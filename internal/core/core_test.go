package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/queries"
	"repro/internal/shard"
	"repro/internal/vcd"
	"repro/internal/vfs"
)

func TestPresetsMatchTable2(t *testing.T) {
	want := map[string][4]float64{
		"1k-short": {2, 960, 540, 15 * 60},
		"1k-long":  {4, 960, 540, 60 * 60},
		"2k-short": {2, 1920, 1080, 15 * 60},
		"2k-long":  {4, 1920, 1080, 60 * 60},
		"4k-short": {2, 3840, 2160, 15 * 60},
		"4k-long":  {4, 3840, 2160, 60 * 60},
	}
	if len(Presets) != len(want) {
		t.Fatalf("%d presets, want %d", len(Presets), len(want))
	}
	for _, p := range Presets {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected preset %s", p.Name)
			continue
		}
		if float64(p.Params.Scale) != w[0] || float64(p.Params.Width) != w[1] ||
			float64(p.Params.Height) != w[2] || p.Params.Duration != w[3] {
			t.Errorf("preset %s = %+v", p.Name, p.Params)
		}
	}
}

func TestTable1Static(t *testing.T) {
	if len(Table1) != 7 {
		t.Errorf("Table 1 has %d rows, paper lists 7", len(Table1))
	}
	if Table1[0].Name != "Optasia" || Table1[6].Name != "Scanner" {
		t.Error("Table 1 order should match the paper")
	}
}

func TestModelResolution(t *testing.T) {
	for _, name := range []string{"1k", "2k", "4k"} {
		w, h, err := ModelResolution(name)
		if err != nil || w <= 0 || h <= 0 {
			t.Errorf("ModelResolution(%s) = %d, %d, %v", name, w, h, err)
		}
	}
	if _, _, err := ModelResolution("8k"); err == nil {
		t.Error("unknown resolution should fail")
	}
	// Scaling relationships mirror the paper's (2x linear per step).
	w1, _, _ := ModelResolution("1k")
	w2, _, _ := ModelResolution("2k")
	w4, _, _ := ModelResolution("4k")
	if w2 != 2*w1 || w4 != 2*w2 {
		t.Errorf("resolutions not in 1:2:4 ratio: %d, %d, %d", w1, w2, w4)
	}
}

func TestLinesOfCodeShape(t *testing.T) {
	rows := LinesOfCode()
	if len(rows) != 3*len(queries.AllQueries) {
		t.Fatalf("%d LOC rows", len(rows))
	}
	// NoScope supports only Q1/Q2(c) and with very few lines; the other
	// engines support everything.
	for _, r := range rows {
		switch r.System {
		case "noscopelike":
			if r.Supported != (r.Query == queries.Q1 || r.Query == queries.Q2c) {
				t.Errorf("noscope support for %s = %v", r.Query, r.Supported)
			}
		default:
			if !r.Supported {
				t.Errorf("%s should support %s", r.System, r.Query)
			}
			if r.QueryLOC <= 0 {
				t.Errorf("%s %s has no counted source", r.System, r.Query)
			}
		}
	}
	// Figure 7's headline: NoScope's Q2(c) invocation is much smaller
	// than Scanner's or LightDB's.
	var noscope, scanner int
	for _, r := range rows {
		if r.Query == queries.Q2c {
			switch r.System {
			case "noscopelike":
				noscope = r.QueryLOC
			case "scannerlike":
				scanner = r.QueryLOC
			}
		}
	}
	if noscope >= scanner {
		t.Errorf("NoScope Q2(c) LOC %d should be below Scanner's %d", noscope, scanner)
	}
}

func TestOverheadMapRendersAllTiles(t *testing.T) {
	out, err := OverheadMap(2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "B") {
		t.Error("map lacks roads or buildings")
	}
	if !strings.Contains(out, "T") || !strings.Contains(out, "P") {
		t.Error("map lacks camera markers")
	}
	if !strings.Contains(out, "TOWN0") {
		t.Error("map lacks tile labels")
	}
}

func TestGeneratorScaleSweepGrowsWithScale(t *testing.T) {
	if testing.Short() {
		t.Skip("generation sweep")
	}
	points, err := GeneratorScaleSweep([]int{1, 2}, []string{"1k"}, 0.3, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("%d points", len(points))
	}
	if points[1].Elapsed <= points[0].Elapsed {
		t.Errorf("L=2 (%v) should cost more than L=1 (%v)", points[1].Elapsed, points[0].Elapsed)
	}
	if points[1].Bytes <= points[0].Bytes {
		t.Error("larger city should produce more data")
	}
}

func TestGeneratorNodeSweepSpeedsUp(t *testing.T) {
	if testing.Short() {
		t.Skip("generation sweep")
	}
	points, err := GeneratorNodeSweep(2, []int{1, 4}, 0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 4 nodes should beat 1 node on a 2-tile city (2 tiles in parallel).
	if points[1].Elapsed >= points[0].Elapsed {
		t.Errorf("4 nodes (%v) not faster than 1 (%v)", points[1].Elapsed, points[0].Elapsed)
	}
}

func TestDetectionQualityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("quality experiment")
	}
	res, err := DetectionQuality(QualityConfig{Frames: 160, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if res.APVisualRoad < 0.5 || res.APVisualRoad > 0.95 {
		t.Errorf("Visual Road AP %.2f far from the paper's 0.72", res.APVisualRoad)
	}
	if res.APRecordedProxy <= res.APVisualRoad-0.02 {
		t.Errorf("recorded AP %.2f should be at or above Visual Road %.2f (paper: 75%% vs 72%%)",
			res.APRecordedProxy, res.APVisualRoad)
	}
}

func TestCompareSystemsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison experiment")
	}
	res, err := CompareSystems(CompareConfig{
		Scale: 1, Duration: 0.5,
		Options: vcd.Options{
			Seed:              3,
			Queries:           []queries.QueryID{queries.Q1, queries.Q2c},
			InstancesPerScale: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// NoScope must win Q2(c) — its architectural specialty.
	ns, _ := res.Cell("noscopelike", queries.Q2c)
	sc, _ := res.Cell("scannerlike", queries.Q2c)
	if ns.Unsupported || sc.Unsupported {
		t.Fatal("Q2(c) should be supported by both")
	}
	if ns.Elapsed >= sc.Elapsed {
		t.Errorf("noscope Q2(c) %v not faster than scanner %v", ns.Elapsed, sc.Elapsed)
	}
}

// TestCompareSystemsShardedMatches: the comparison grid through the
// shard plane carries the same result-bearing cells as the
// single-process grid — same support, completion, frames, and batch
// accounting for every (system, query) — with zero degradation
// counters.
func TestCompareSystemsShardedMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison experiment")
	}
	cfg := CompareConfig{
		Scale: 1, Duration: 0.5,
		Options: vcd.Options{
			Seed:              3,
			Queries:           []queries.QueryID{queries.Q1, queries.Q2c, queries.Q5},
			InstancesPerScale: 2,
		},
	}
	want, err := CompareSystems(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shard.Shards = 2
	got, err := CompareSystems(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(want.Runs) {
		t.Fatalf("%d sharded runs, want %d", len(got.Runs), len(want.Runs))
	}
	for i, run := range got.Runs {
		wr := want.Runs[i]
		if run.System != wr.System || len(run.Queries) != len(wr.Queries) {
			t.Fatalf("run %d: %s with %d batches, want %s with %d", i, run.System, len(run.Queries), wr.System, len(wr.Queries))
		}
		for j := range wr.Queries {
			w, g := &wr.Queries[j], &run.Queries[j]
			if g.System != w.System || g.Query != w.Query || g.Unsupported != w.Unsupported ||
				g.Frames != w.Frames || g.Completed != w.Completed || g.BatchSize != w.BatchSize ||
				g.ResourceErrors != w.ResourceErrors || g.BatchSplits != w.BatchSplits ||
				g.Validation.PassRate() != w.Validation.PassRate() {
				t.Errorf("cell %s/%s diverged: sharded {frames %d completed %d} vs {frames %d completed %d}",
					w.System, w.Query, g.Frames, g.Completed, w.Frames, w.Completed)
			}
		}
		if wr.Shard != nil {
			t.Errorf("%s: single-process run carries shard counters", wr.System)
		}
		if run.Shard == nil {
			t.Fatalf("%s: sharded run missing counters", run.System)
		}
		if run.Shard.Workers != 2 || run.Shard.WorkerFailures != 0 {
			t.Errorf("%s: counters %+v", run.System, *run.Shard)
		}
	}
}

func TestWriteVsStreamingSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("modes experiment")
	}
	res, err := WriteVsStreaming(CompareConfig{
		Scale: 1, Duration: 0.5, Options: vcd.Options{Seed: 3, InstancesPerScale: 2},
	}, []queries.QueryID{queries.Q1, queries.Q2a})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d systems measured, want 2", len(res))
	}
	for _, r := range res {
		if r.Write <= 0 || r.Streaming <= 0 {
			t.Errorf("%s: zero durations", r.System)
		}
	}
}

// TestGenSpecCarriesTileGrid: a remote shard worker regenerates its
// dataset from the job's GenSpec, so the spec — after the JSON wire —
// must reproduce the coordinator's store byte for byte, tile grid
// included (a spec without the grid regenerates untiled videos under a
// coordinator holding tiled ones).
func TestGenSpecCarriesTileGrid(t *testing.T) {
	cfg := CompareConfig{
		Scale: 1, Width: 96, Height: 64, Duration: 0.5,
		Options:  vcd.Options{Seed: 5},
		TileRows: 2, TileCols: 2,
	}.withDefaults()
	want, err := GenerateStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(shard.DatasetSpec{Gen: cfg.genSpec()})
	if err != nil {
		t.Fatal(err)
	}
	var spec shard.DatasetSpec
	if err := json.Unmarshal(wire, &spec); err != nil {
		t.Fatal(err)
	}
	got := vfs.NewMemory()
	if err := spec.Gen.Generate(got, 1); err != nil {
		t.Fatal(err)
	}
	names, err := want.List()
	if err != nil {
		t.Fatal(err)
	}
	gotNames, _ := got.List()
	if len(names) == 0 || len(gotNames) != len(names) {
		t.Fatalf("worker regenerated %d files, coordinator holds %d", len(gotNames), len(names))
	}
	for _, name := range names {
		w, err := vfs.ReadAll(want, name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := vfs.ReadAll(got, name)
		if err != nil {
			t.Fatalf("worker store lacks %s: %v", name, err)
		}
		if !bytes.Equal(w, g) {
			t.Errorf("%s: regenerated bytes differ from GenerateStore's", name)
		}
	}
}
