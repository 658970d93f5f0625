package core

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/vcd"
	"repro/internal/vcg"
	"repro/internal/vfs"
)

// TestTable9 runs the dataset-validation experiment at L = 1 and checks
// what does not depend on timing: the grid is whole, the corpora draw
// identical batches, Duplicates hands the caching engine repeated
// content, and Random defeats the codec.
func TestTable9(t *testing.T) {
	cfg := Table9Config{NumVideos: 4, Width: 128, Height: 72, Duration: 0.5, FPS: 15, Seed: 11, Instances: 4,
		Queries: []queries.QueryID{queries.Q1, queries.Q2a, queries.Q5}}
	corpora, err := BuildCorpora(cfg)
	if err != nil {
		t.Fatal(err)
	}
	metrics.SetEnabled(true)
	t.Cleanup(func() { metrics.SetEnabled(false) })
	res, err := Table9On(corpora, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corpora) != 4 || len(res.Cells) != 4*2*len(cfg.Queries) || len(res.Runs) != 4*2 {
		t.Fatalf("%d corpora, %d cells, %d runs; want 4, %d, 8", len(res.Corpora), len(res.Cells), len(res.Runs), 4*2*len(cfg.Queries))
	}
	for _, c := range res.Corpora {
		for _, sys := range []string{"lightdblike", "scannerlike"} {
			for _, q := range cfg.Queries {
				if cell, ok := res.Cell(q, sys, c); !ok || cell.Elapsed <= 0 {
					t.Errorf("%s/%s/%s: cell %+v", c, sys, q, cell)
				}
			}
		}
	}

	// Every corpus draws the baseline's parameters and cameras.
	opt := cfg.withDefaults().runOptions()
	n := opt.InstancesPerScale * cfg.scale()
	for _, q := range cfg.Queries {
		want, err := vcd.BuildBatch(corpora[0].Dataset, q, n, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range corpora[1:] {
			got, err := vcd.BuildBatch(c.Dataset, q, n, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i].Params, want[i].Params) || got[i].Inputs[0].Name != want[i].Inputs[0].Name {
					t.Errorf("%s %s[%d]: %s %+v, baseline %s %+v", c.Name, q, i,
						got[i].Inputs[0].Name, got[i].Params, want[i].Inputs[0].Name, want[i].Params)
				}
			}
		}
	}

	// Duplicates: the caching engine serves more decodes from its
	// content-keyed cache than on the baseline.
	hits := map[string]int64{}
	for _, run := range res.Runs {
		if run.System == "lightdblike" {
			hits[run.Corpus] = run.Telemetry.Stage(metrics.StageDecode).Hits
		}
	}
	if hits["duplicates"] <= hits["ua-detrac-proxy"] {
		t.Errorf("lightdblike decode hits: duplicates %d, baseline %d; want more on duplicates", hits["duplicates"], hits["ua-detrac-proxy"])
	}

	// Random: noise does not compress. Measured at this config: 10.7x
	// the baseline's bytes.
	stored := map[string]int{}
	for _, c := range corpora {
		for _, id := range c.TrafficCameraIDs() {
			data, err := vfs.ReadAll(c.Store, vcg.VideoName(id))
			if err != nil {
				t.Fatal(err)
			}
			stored[c.Name] += len(data)
		}
	}
	if stored["random"] < 8*stored["ua-detrac-proxy"] {
		t.Errorf("random corpus stores %d bytes, baseline %d; want at least 8x", stored["random"], stored["ua-detrac-proxy"])
	}
}
