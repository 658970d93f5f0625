package vcd

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/queries"
	"repro/internal/vdbms"
	"repro/internal/vdbms/lightdblike"
	"repro/internal/vdbms/noscopelike"
	"repro/internal/vdbms/scannerlike"
	"repro/internal/vfs"
	"repro/internal/video"
)

// wholeClipSource is the equivalence suites' reference decode layer: it
// serves every request by asking the dataset for the whole clip —
// [0, n) × every tile — and slicing the window out afterwards, the way
// engines were served before plans declared windows and ROIs. Range and
// tile selection in the codec and the cache are bypassed entirely, so a
// run staged on it is the baseline the selective paths must match.
type wholeClipSource struct{ ds *Dataset }

func (s wholeClipSource) SharedCache() bool { return s.ds.SharedCache() }

func (s wholeClipSource) Decoded(in *vdbms.Input, req codec.Request) (*video.Video, error) {
	n := len(in.Encoded.Frames)
	if req.Lo < 0 || req.Hi > n || req.Lo > req.Hi {
		return nil, fmt.Errorf("frame range [%d, %d) outside [0, %d]", req.Lo, req.Hi, n)
	}
	v, err := s.ds.Decoded(in, codec.Request{Hi: n, Workers: req.Workers})
	if err != nil {
		return nil, err
	}
	return &video.Video{FPS: v.FPS, Frames: v.Frames[req.Lo:req.Hi]}, nil
}

// runWholeClipBaseline is runWindowed with every input of the dataset
// staged on a wholeClipSource for the duration of the run.
func runWholeClipBaseline(t *testing.T, ds *Dataset, sys vdbms.System, opt Options) runOutcome {
	t.Helper()
	for _, vm := range ds.Manifest.Videos {
		in, err := ds.Input(vm.CameraID)
		if err != nil {
			t.Fatal(err)
		}
		in.Source = wholeClipSource{ds}
		defer func() { in.Source = ds }()
	}
	return runWindowed(t, ds, sys, opt)
}

// runWindowed executes the time-windowed micro query batch (Q1 is the
// only benchmark query whose plan declares a frame window) in write mode
// so every persisted byte is comparable across configurations.
func runWindowed(t *testing.T, ds *Dataset, sys vdbms.System, opt Options) runOutcome {
	t.Helper()
	store := vfs.NewMemory()
	opt.Queries = []queries.QueryID{queries.Q1}
	opt.InstancesPerScale = 3
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

// TestRunRangeDecodeEquivalence is the range-aware decode contract: for
// time-windowed queries, serving a window by GOP-bounded partial decode
// must be observably identical — per-instance results, validation
// verdicts, and persisted result bytes — to the baseline that decodes
// whole clips and slices (wholeClipSource). All three engine
// families are covered because each reaches the window by a different
// route: scannerlike ingests ranged tables, lightdblike seeks its
// incremental decoder to the governing keyframe, and noscopelike decodes
// the declared range up front.
func TestRunRangeDecodeEquivalence(t *testing.T) {
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
		{"noscopelike", func() vdbms.System { return noscopelike.NewDefault() }},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			baseline := runWholeClipBaseline(t, ds, eng.mk(), Options{Workers: 1})

			ranged := runWindowed(t, ds, eng.mk(), Options{Workers: 1})
			compareOutcomes(t, "range/workers=1", baseline, ranged)

			// Every windowed request of the baseline costs a whole clip, so
			// the ranged run can never request more frames.
			fullSt := baseline.report.DecodedCache
			rangeSt := ranged.report.DecodedCache
			if rangeSt.FramesRequested == 0 {
				t.Error("ranged run requested no frames through the decoded cache")
			}
			if rangeSt.FramesRequested > fullSt.FramesRequested {
				t.Errorf("ranged run requested %d frames, whole-clip baseline %d",
					rangeSt.FramesRequested, fullSt.FramesRequested)
			}

			wide := runWindowed(t, ds, eng.mk(), Options{Workers: 8})
			compareOutcomes(t, "range/workers=8", baseline, wide)

			prev := runtime.GOMAXPROCS(1)
			pinned := runWindowed(t, ds, eng.mk(), Options{Workers: 8})
			runtime.GOMAXPROCS(prev)
			compareOutcomes(t, "range/workers=8/GOMAXPROCS=1", baseline, pinned)
		})
	}
}
