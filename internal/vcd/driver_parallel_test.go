package vcd

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/queries"
	"repro/internal/vdbms"
	"repro/internal/vdbms/lightdblike"
	"repro/internal/vdbms/scannerlike"
	"repro/internal/vfs"
)

// equivalenceQueries exercise the paths most sensitive to concurrency:
// shared-input decode (every query), the blur pipeline (Q2b), masking
// with pooled temporaries (Q2d), resize (Q1, Q5), and the staged boxes
// input (Q6a).
var equivalenceQueries = []queries.QueryID{
	queries.Q1, queries.Q2b, queries.Q2d, queries.Q5, queries.Q6a,
}

type runOutcome struct {
	report *RunReport
	store  *vfs.Memory
}

func runForEquivalence(t *testing.T, ds *Dataset, sys vdbms.System, opt Options) runOutcome {
	t.Helper()
	store := vfs.NewMemory()
	opt.Queries = equivalenceQueries
	opt.InstancesPerScale = 2
	opt.Seed = 42
	opt.Mode = WriteMode
	opt.ResultStore = store
	opt.Validate = true
	report, err := Run(ds, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	return runOutcome{report: report, store: store}
}

// compareOutcomes checks everything observable about two runs except
// timing: per-instance results, validation verdicts, and every persisted
// result byte.
func compareOutcomes(t *testing.T, label string, want, got runOutcome) {
	t.Helper()
	if len(want.report.Queries) != len(got.report.Queries) {
		t.Fatalf("%s: %d query reports, want %d", label, len(got.report.Queries), len(want.report.Queries))
	}
	for qi := range want.report.Queries {
		wq, gq := &want.report.Queries[qi], &got.report.Queries[qi]
		if gq.Query != wq.Query || gq.BatchSize != wq.BatchSize ||
			gq.Completed != wq.Completed || gq.Unsupported != wq.Unsupported ||
			gq.ResourceErrors != wq.ResourceErrors || gq.Frames != wq.Frames {
			t.Errorf("%s: %s report diverged: got {batch %d completed %d frames %d}, want {batch %d completed %d frames %d}",
				label, wq.Query, gq.BatchSize, gq.Completed, gq.Frames, wq.BatchSize, wq.Completed, wq.Frames)
			continue
		}
		for i := range wq.Instances {
			wi, gi := &wq.Instances[i], &gq.Instances[i]
			if gi.Frames != wi.Frames {
				t.Errorf("%s: %s[%d] frames = %d, want %d", label, wq.Query, i, gi.Frames, wi.Frames)
			}
			werr, gerr := "", ""
			if wi.Err != nil {
				werr = wi.Err.Error()
			}
			if gi.Err != nil {
				gerr = gi.Err.Error()
			}
			if gerr != werr {
				t.Errorf("%s: %s[%d] err = %q, want %q", label, wq.Query, i, gerr, werr)
			}
			wv, gv := wi.Validation, gi.Validation
			if (wv == nil) != (gv == nil) {
				t.Errorf("%s: %s[%d] validation presence differs", label, wq.Query, i)
				continue
			}
			if wv == nil {
				continue
			}
			if gv.Checked != wv.Checked || gv.Passed != wv.Passed || gv.PSNR != wv.PSNR ||
				gv.SemanticChecked != wv.SemanticChecked || gv.SemanticPassed != wv.SemanticPassed {
				t.Errorf("%s: %s[%d] validation = %+v, want %+v", label, wq.Query, i, *gv, *wv)
			}
		}
	}
	wantNames, err := want.store.List()
	if err != nil {
		t.Fatal(err)
	}
	gotNames, err := got.store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(wantNames) != len(gotNames) {
		t.Fatalf("%s: persisted %d results, want %d", label, len(gotNames), len(wantNames))
	}
	for i, name := range wantNames {
		if gotNames[i] != name {
			t.Fatalf("%s: result name %q, want %q", label, gotNames[i], name)
		}
		wb, err := vfs.ReadAll(want.store, name)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := vfs.ReadAll(got.store, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Errorf("%s: persisted result %s differs (%d vs %d bytes)", label, name, len(gb), len(wb))
		}
	}
}

// TestRunWorkersEquivalence is the driver's determinism contract: the
// sequential paper-faithful mode, serial workers with the shared cache,
// and 8-way concurrent execution must produce identical per-instance
// results, validation verdicts, and persisted result bytes. Both the
// materializing engine (scannerlike: ingest via vdbms.Decode) and the
// streaming engine (lightdblike: vdbms.Decode with a shared cache, its
// own incremental decoder without) are covered, since they reach the
// cache by different paths.
func TestRunWorkersEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-configuration benchmark run in -short mode")
	}
	ds := testDataset(t)
	engines := []struct {
		name string
		mk   func() vdbms.System
	}{
		{"scannerlike", func() vdbms.System { return scannerlike.New(scannerlike.Options{}) }},
		{"lightdblike", func() vdbms.System { return lightdblike.New(lightdblike.Options{}) }},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			baseline := runForEquivalence(t, ds, eng.mk(), Options{Sequential: true})

			if st := baseline.report.DecodedCache; st.Hits != 0 || st.Misses != 0 {
				t.Errorf("sequential mode used the decoded cache: %+v", st)
			}

			serial := runForEquivalence(t, ds, eng.mk(), Options{Workers: 1})
			compareOutcomes(t, "workers=1", baseline, serial)
			if st := serial.report.DecodedCache; st.Misses == 0 {
				t.Error("cached run recorded no decode misses; cache appears disconnected")
			}

			wide := runForEquivalence(t, ds, eng.mk(), Options{Workers: 8})
			compareOutcomes(t, "workers=8", baseline, wide)

			prev := runtime.GOMAXPROCS(1)
			pinned := runForEquivalence(t, ds, eng.mk(), Options{Workers: 8})
			runtime.GOMAXPROCS(prev)
			compareOutcomes(t, "workers=8/GOMAXPROCS=1", baseline, pinned)
		})
	}
}
