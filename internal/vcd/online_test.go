package vcd

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/queries"
	"repro/internal/stream"
	"repro/internal/vdbms"
	"repro/internal/vdbms/lightdblike"
	"repro/internal/vdbms/noscopelike"
	"repro/internal/vdbms/scannerlike"
	"repro/internal/vfs"
	"repro/internal/video"
)

// ldb is the engine the online tests run: the one bundled engine that
// consumes a live stream.
var ldb vdbms.System = lightdblike.New(lightdblike.Options{})

// discard is the sink of a session whose results the test ignores.
var discard = vdbms.SinkFunc(func(string, *video.Video) error { return nil })

// fakeClock starts each session on a clock of its own that sleeps no
// wall time.
func fakeClock() stream.Clock { return stream.NewFakeClock(time.Unix(0, 0)) }

func onlineInstance(t *testing.T, ds *Dataset, q queries.QueryID, p queries.Params) *vdbms.QueryInstance {
	t.Helper()
	in, err := ds.Input(ds.TrafficCameraIDs()[0])
	if err != nil {
		t.Fatal(err)
	}
	return &vdbms.QueryInstance{Query: q, Params: p, Inputs: []*vdbms.Input{in}}
}

func TestRunOnlinePipe(t *testing.T) {
	ds := testDataset(t)
	inst := onlineInstance(t, ds, queries.Q2a, queries.Params{})
	var got *video.Video
	sink := vdbms.SinkFunc(func(key string, v *video.Video) error {
		got = v
		return nil
	})
	// A fake clock removes wall-clock pacing from the test.
	rep, err := runOnline(context.Background(), ldb, inst, OnlineOptions{Transport: TransportPipe, Clock: fakeClock}, sink)
	if err != nil {
		t.Fatal(err)
	}
	want := len(inst.Inputs[0].Encoded.Frames)
	if rep.Frames != want {
		t.Errorf("processed %d frames, want %d", rep.Frames, want)
	}
	if got == nil || len(got.Frames) != want {
		t.Error("sink did not receive the processed stream")
	}
	if rep.FPS <= 0 {
		t.Error("no throughput reported")
	}
	// Grayscale output: chroma neutral.
	for i := range got.Frames[0].U {
		if got.Frames[0].U[i] != 128 {
			t.Fatal("online Q2(a) did not grayscale")
		}
	}
}

func TestRunOnlineRTP(t *testing.T) {
	ds := testDataset(t)
	inst := onlineInstance(t, ds, queries.Q5, queries.Params{Alpha: 2, Beta: 2})
	var got *video.Video
	sink := vdbms.SinkFunc(func(key string, v *video.Video) error {
		got = v
		return nil
	})
	rep, err := runOnline(context.Background(), ldb, inst, OnlineOptions{Transport: TransportRTP}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames == 0 {
		t.Fatal("no frames over RTP")
	}
	w, h := got.Resolution()
	if w != 64 || h != 48 {
		t.Errorf("online Q5 output %dx%d, want 64x48", w, h)
	}
}

func TestRunOnlineThrottledPacing(t *testing.T) {
	ds := testDataset(t)
	inst := onlineInstance(t, ds, queries.Q2a, queries.Params{})
	clock := stream.NewFakeClock(time.Unix(0, 0))
	if _, err := runOnline(context.Background(), ldb, inst, OnlineOptions{Transport: TransportPipe, Clock: func() stream.Clock { return clock }}, discard); err != nil {
		t.Fatal(err)
	}
	// The producer paced frames at the capture rate: the fake clock
	// must have been advanced by roughly duration × fps intervals.
	var total time.Duration
	for _, d := range clock.Slept {
		total += d
	}
	frames := len(inst.Inputs[0].Encoded.Frames)
	wantMin := time.Duration(frames-2) * time.Second / 15
	if total < wantMin {
		t.Errorf("producer slept %v, want at least %v — stream was not throttled", total, wantMin)
	}
}

// An engine that decodes stored video only, even one that ingested the
// input offline, and an instance with more than one input, are
// unsupported online; they fail before a frame is sent: a dial that
// would fail is never tried.
func TestRunOnlineUnsupportedQuery(t *testing.T) {
	ds := testDataset(t)
	q9 := onlineInstance(t, ds, queries.Q9, queries.Params{})
	q9.Inputs = append(q9.Inputs, q9.Inputs[0])
	q2a := onlineInstance(t, ds, queries.Q2a, queries.Params{})
	scanner := scannerlike.New(scannerlike.Options{})
	if err := scanner.Execute(q2a, vdbms.SinkFunc(func(string, *video.Video) error { return nil })); err != nil {
		t.Fatal(err) // the input is in its ingest cache now
	}
	for _, tc := range []struct {
		name string
		sys  vdbms.System
		inst *vdbms.QueryInstance
	}{
		{"scannerlike", scanner, q2a},
		{"noscopelike", noscopelike.NewDefault(), onlineInstance(t, ds, queries.Q2c, queries.Params{Algorithm: "yolov2"})},
		{"Q9", ldb, q9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runOnline(context.Background(), tc.sys, tc.inst, OnlineOptions{
				Faults: &stream.FaultPlan{Seed: 1, DialFailures: 1},
				Retry:  stream.RetryPolicy{Attempts: 1},
			}, discard)
			if u := (*vdbms.ErrUnsupported)(nil); !errors.As(err, &u) {
				t.Errorf("err = %v, want *vdbms.ErrUnsupported", err)
			}
		})
	}
}

// runPersisted runs a write-mode batch into a memory store and returns
// its report, the canonical report bytes and one "name sha256" line per
// persisted result.
func runPersisted(t *testing.T, ds *Dataset, sys vdbms.System, opt Options) (*RunReport, string, []string) {
	t.Helper()
	store := vfs.NewMemory()
	opt.Mode, opt.ResultStore = WriteMode, store
	rep, err := Run(ds, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := MarshalReport(Summarize(rep).Canonical())
	if err != nil {
		t.Fatal(err)
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	var results []string
	for _, name := range names {
		data, err := vfs.ReadAll(store, name)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, fmt.Sprintf("%s %x", name, sha256.Sum256(data)))
	}
	return rep, string(canonical), results
}

// singleInput is every query with one input: the ones an online run
// stages as streams.
var singleInput = []queries.QueryID{queries.Q1, queries.Q2a, queries.Q2b, queries.Q2c, queries.Q2d,
	queries.Q3, queries.Q4, queries.Q5, queries.Q6a, queries.Q6b, queries.Q7, queries.Q10}

// A zero-fault online run of every single-input query, over either
// transport, writes the offline run's canonical report and result
// bytes, validates 100%, and accounts for every frame of every stream.
func TestRunOnlineMatchesOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run in -short mode")
	}
	ds := testDataset(t)
	opt := Options{Queries: singleInput, InstancesPerScale: 2, Seed: 3, Validate: true, MaxUpsamplePixels: 1 << 16}
	_, wantReport, wantResults := runPersisted(t, ds, ldb, opt)
	if len(wantResults) == 0 {
		t.Fatal("the offline run persisted no result")
	}
	clip := len(onlineInstance(t, ds, queries.Q1, queries.Params{}).Inputs[0].Encoded.Frames) // every input's length
	forEachTransport(t, func(t *testing.T, tr OnlineTransport) {
		opt := opt
		opt.Online = &OnlineOptions{Transport: tr, Clock: fakeClock}
		rep, report, results := runPersisted(t, ds, ldb, opt)
		if report != wantReport {
			t.Errorf("canonical report differs from offline:\n%s\nwant\n%s", report, wantReport)
		}
		if !slices.Equal(results, wantResults) {
			t.Errorf("persisted results differ from offline:\n%v\nwant\n%v", results, wantResults)
		}
		for _, qr := range rep.Queries {
			for i, res := range qr.Instances {
				if res.Online == nil || res.Online.Frames != clip {
					t.Errorf("%s[%d]: stream received %+v, want all %d frames", qr.Query, i, res.Online, clip)
				}
			}
			if o := qr.Online; o == nil || o.Frames != clip*qr.BatchSize || o.Degraded != 0 ||
				o.FramesDropped != 0 || o.Gaps != 0 || o.Resyncs != 0 || o.Retries != 0 || o.FPS <= 0 {
				t.Errorf("%s: clean online batch reported %+v", qr.Query, o)
			}
			if qr.Validation.Checked != qr.BatchSize || qr.Validation.PassRate() != 1 {
				t.Errorf("%s: %d of %d validated, pass rate %.2f", qr.Query, qr.Validation.Checked, qr.BatchSize, qr.Validation.PassRate())
			}
		}
	})
}

// An online run validates its results like an offline one: under a 5%
// drop schedule, every instance whose output lost frames fails
// validation, and every other one passes.
func TestRunOnlineValidatesLostFrames(t *testing.T) {
	ds := testDataset(t)
	clip := len(onlineInstance(t, ds, queries.Q1, queries.Params{}).Inputs[0].Encoded.Frames)
	rep, err := Run(ds, ldb, Options{
		// Each writes one output frame per input frame; Q2(c) is
		// validated semantically, the others against the reference.
		Queries: []queries.QueryID{queries.Q2a, queries.Q2c, queries.Q5}, InstancesPerScale: 4, Seed: 3,
		Mode: StreamingMode, Validate: true,
		Online: &OnlineOptions{Clock: fakeClock, Faults: &stream.FaultPlan{Seed: 4, DropRate: 0.05}},
	})
	if err != nil {
		t.Fatal(err)
	}
	lost, clean := 0, 0
	for _, qr := range rep.Queries {
		for i, res := range qr.Instances {
			if res.Err != nil || res.Online == nil {
				t.Fatalf("%s[%d]: %v, stream %+v", qr.Query, i, res.Err, res.Online)
			}
			v := res.Validation
			passed := v.Checked && v.Passed && v.Err == nil
			if res.Frames < clip {
				lost++
				if passed || res.Online.FramesDropped == 0 {
					t.Errorf("%s[%d]: %d of %d frames written, %d dropped, validation passed=%v", qr.Query, i, res.Frames, clip, res.Online.FramesDropped, passed)
				}
			} else {
				clean++
				if !passed || res.Online.FramesDropped != 0 {
					t.Errorf("%s[%d]: all %d frames written, %d dropped, validation passed=%v (%v)", qr.Query, i, clip, res.Online.FramesDropped, passed, v.Err)
				}
			}
		}
	}
	// The schedule's seed is pinned where both cases occur.
	if lost == 0 || clean == 0 {
		t.Errorf("%d instances lost frames, %d did not: the schedule no longer tests both", lost, clean)
	}
}

// An online run reports a batch unsupported, with no instance failed,
// when the engine cannot read a live input or the query has more than
// one input.
func TestRunOnlineUnsupportedBatches(t *testing.T) {
	ds := testDataset(t)
	for _, tc := range []struct {
		sys vdbms.System
		qs  []queries.QueryID
	}{
		{scannerlike.New(scannerlike.Options{}), []queries.QueryID{queries.Q1, queries.Q2a, queries.Q2c, queries.Q5}},
		{noscopelike.NewDefault(), []queries.QueryID{queries.Q1, queries.Q2c}},
		{ldb, []queries.QueryID{queries.Q8, queries.Q9}},
	} {
		rep, err := Run(ds, tc.sys, Options{Queries: tc.qs, InstancesPerScale: 1, Seed: 3, Mode: StreamingMode,
			Online: &OnlineOptions{Clock: fakeClock}})
		if err != nil {
			t.Fatal(err)
		}
		for _, qr := range rep.Queries {
			if !qr.Unsupported || qr.BatchSize != 0 || len(qr.Instances) != 0 || qr.Online != nil {
				t.Errorf("%s %s online: %+v, want an unsupported batch", tc.sys.Name(), qr.Query, qr)
			}
		}
	}
}
