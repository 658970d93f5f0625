package vcd

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/queries"
	"repro/internal/stream"
	"repro/internal/vdbms"
	"repro/internal/vdbms/lightdblike"
	"repro/internal/vdbms/noscopelike"
	"repro/internal/vdbms/scannerlike"
	"repro/internal/video"
)

// ldb is the engine the online tests run: the one bundled engine that
// consumes a live stream.
var ldb vdbms.System = lightdblike.New(lightdblike.Options{})

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
	clock := stream.NewFakeClock(time.Unix(0, 0))
	rep, err := RunOnlineOpts(context.Background(), ldb, inst, OnlineOptions{Transport: TransportPipe, Clock: clock, Sink: sink})
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
	rep, err := RunOnlineOpts(context.Background(), ldb, inst, OnlineOptions{Transport: TransportRTP, Sink: sink})
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
	if _, err := RunOnlineOpts(context.Background(), ldb, inst, OnlineOptions{Transport: TransportPipe, Clock: clock}); err != nil {
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
			_, err := RunOnlineOpts(context.Background(), tc.sys, tc.inst, OnlineOptions{
				Faults: &stream.FaultPlan{Seed: 1, DialFailures: 1},
				Retry:  stream.RetryPolicy{Attempts: 1},
			})
			if u := (*vdbms.ErrUnsupported)(nil); !errors.As(err, &u) {
				t.Errorf("err = %v, want *vdbms.ErrUnsupported", err)
			}
		})
	}
}
