package vcd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/queries"
	"repro/internal/stream"
	"repro/internal/vcity"
	"repro/internal/vdbms"
	"repro/internal/vdbms/scannerlike"
	"repro/internal/vdbms/vdbmstest"
	"repro/internal/video"
)

// checkNoGoroutineLeak snapshots the goroutine count and returns a
// function asserting the count settled back — the leak-free contract of
// every RunOnlineOpts exit path.
func checkNoGoroutineLeak(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		var after int
		for {
			runtime.Gosched()
			after = runtime.NumGoroutine()
			if after <= before {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// forEachTransport runs test once per online transport, as a subtest
// named after it.
func forEachTransport(t *testing.T, test func(*testing.T, OnlineTransport)) {
	for _, tr := range []OnlineTransport{TransportPipe, TransportRTP} {
		t.Run(tr.String(), func(t *testing.T) { test(t, tr) })
	}
}

// One sender and one receiver serve both transports, so every fault key
// degrades them identically: equal reports (but for Transport) or equal
// errors, and each fault leaves its trace.
func TestRunOnlineTransportsAgree(t *testing.T) {
	ds := testDataset(t)
	run := func(spec string, tr OnlineTransport) (*OnlineReport, error) {
		plan, err := stream.ParseFaultSpec(spec, 7, "cam")
		if err != nil {
			t.Fatal(err)
		}
		inst := onlineInstance(t, ds, queries.Q2a, queries.Params{})
		return RunOnlineOpts(context.Background(), ldb, inst, OnlineOptions{
			Transport: tr,
			Clock:     stream.NewFakeClock(time.Unix(0, 0)),
			Faults:    plan,
		})
	}
	clean, err := run("", TransportPipe)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec  string
		trace func(*OnlineReport, error) bool
	}{
		{"", func(r *OnlineReport, err error) bool { return err == nil && !r.Degraded }},
		{"drop=0.2", lost},
		{"reorder=0.2", lost},
		{"corrupt=0.2", lost},
		{"cut=3", func(_ *OnlineReport, err error) bool { return errors.Is(err, stream.ErrTruncated) }},
		{"dial=2", func(r *OnlineReport, err error) bool { return err == nil && r.Retries == 2 }},
		{"stall=0.5,stallms=200", func(r *OnlineReport, err error) bool { return err == nil && r.Elapsed > clean.Elapsed }},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			pipe, perr := run(tc.spec, TransportPipe)
			rtp, rerr := run(tc.spec, TransportRTP)
			if fmt.Sprint(perr) != fmt.Sprint(rerr) {
				t.Fatalf("errors differ: pipe %v, rtp %v", perr, rerr)
			}
			if pipe != nil && rtp != nil {
				pipe.Transport = rtp.Transport
				if *pipe != *rtp {
					t.Errorf("reports differ:\n  pipe %+v\n  rtp  %+v", pipe, rtp)
				}
			}
			if !tc.trace(rtp, rerr) {
				t.Errorf("no trace of the fault: %+v, %v", rtp, rerr)
			}
		})
	}
}

// lost reports a run that completed degraded: frames dropped, a gap,
// or the Degraded flag.
func lost(r *OnlineReport, err error) bool {
	return err == nil && (r.FramesDropped > 0 || r.Gaps > 0 || r.Degraded)
}

// corruptInput clones the input with frame idx's access unit replaced
// by undecodable bytes, leaving the dataset's copy untouched.
func corruptInput(in *vdbms.Input, idx int) *vdbms.Input {
	cp := *in
	enc := *in.Encoded
	enc.Frames = append([]codec.EncodedFrame(nil), in.Encoded.Frames...)
	f := enc.Frames[idx]
	f.Data = []byte{0xff} // inter-frame flag with no body: decode must fail
	enc.Frames[idx] = f
	cp.Encoded = &enc
	return &cp
}

func TestRunOnlineExitPathsLeakFree(t *testing.T) {
	ds := testDataset(t)
	connectionCut := func(tr OnlineTransport) func(t *testing.T) error {
		return func(t *testing.T) error {
			inst := onlineInstance(t, ds, queries.Q2a, queries.Params{})
			_, err := RunOnlineOpts(context.Background(), ldb, inst, OnlineOptions{
				Transport: tr,
				Clock:     stream.NewFakeClock(time.Unix(0, 0)),
				Faults:    &stream.FaultPlan{Seed: 1, CutAtPacket: 2},
			})
			if !errors.Is(err, stream.ErrTruncated) {
				t.Errorf("err = %v, want ErrTruncated", err)
			}
			// The sender's root cause must ride along, not be lost.
			if err != nil && !strings.Contains(err.Error(), stream.ErrFaultCut.Error()) {
				t.Errorf("missing the sender's cut: %v", err)
			}
			return nil
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T) error
	}{
		{"pipe-success", func(t *testing.T) error {
			inst := onlineInstance(t, ds, queries.Q2a, queries.Params{})
			_, err := RunOnlineOpts(context.Background(), ldb, inst, OnlineOptions{
				Clock: stream.NewFakeClock(time.Unix(0, 0)),
			})
			return err
		}},
		{"rtp-success", func(t *testing.T) error {
			inst := onlineInstance(t, ds, queries.Q2a, queries.Params{})
			_, err := RunOnlineOpts(context.Background(), ldb, inst, OnlineOptions{
				Transport: TransportRTP,
				Clock:     stream.NewFakeClock(time.Unix(0, 0)),
			})
			return err
		}},
		{"unsupported-query", func(t *testing.T) error {
			inst := onlineInstance(t, ds, queries.Q2a, queries.Params{})
			_, err := RunOnlineOpts(context.Background(), scannerlike.New(scannerlike.Options{}), inst, OnlineOptions{})
			if u := (*vdbms.ErrUnsupported)(nil); !errors.As(err, &u) {
				t.Errorf("err = %v, want *vdbms.ErrUnsupported", err)
			}
			return nil
		}},
		{"cancelled-context-pipe", func(t *testing.T) error {
			inst := onlineInstance(t, ds, queries.Q2a, queries.Params{})
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := RunOnlineOpts(ctx, ldb, inst, OnlineOptions{
				Clock: stream.NewFakeClock(time.Unix(0, 0)),
			})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
			return nil
		}},
		{"cancelled-context-rtp", func(t *testing.T) error {
			inst := onlineInstance(t, ds, queries.Q2a, queries.Params{})
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := RunOnlineOpts(ctx, ldb, inst, OnlineOptions{
				Transport: TransportRTP,
				Clock:     stream.NewFakeClock(time.Unix(0, 0)),
			})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
			return nil
		}},
		{"timeout", func(t *testing.T) error {
			inst := onlineInstance(t, ds, queries.Q2a, queries.Params{})
			// Wall-clock pacing (nil clock) streams 1s of video; a 30ms
			// deadline fires mid-stream and must unwind both sides.
			_, err := RunOnlineOpts(context.Background(), ldb, inst, OnlineOptions{
				Timeout: 30 * time.Millisecond,
			})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("err = %v, want context.DeadlineExceeded", err)
			}
			return nil
		}},
		{"decode-error", func(t *testing.T) error {
			inst := onlineInstance(t, ds, queries.Q2a, queries.Params{})
			inst.Inputs[0] = corruptInput(inst.Inputs[0], 1)
			// No fault plan: a corrupt access unit is a hard error, not a
			// silent degradation.
			_, err := RunOnlineOpts(context.Background(), ldb, inst, OnlineOptions{
				Clock: stream.NewFakeClock(time.Unix(0, 0)),
			})
			if err == nil {
				t.Error("corrupt AU with no fault plan should fail")
			}
			return nil
		}},
		{"pipe-connection-cut", connectionCut(TransportPipe)},
		{"rtp-connection-cut", connectionCut(TransportRTP)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := checkNoGoroutineLeak(t)
			if err := tc.run(t); err != nil {
				t.Fatal(err)
			}
			check()
		})
	}
}

// zeroFaultSource decodes the clip the online tests stream, for the
// reference kernels to run over.
func zeroFaultSource(t *testing.T, ds *Dataset) (*vdbms.Input, *video.Video) {
	t.Helper()
	in := onlineInstance(t, ds, queries.Q2a, queries.Params{}).Inputs[0]
	src, err := in.Encoded.Decode()
	if err != nil {
		t.Fatal(err)
	}
	return in, src
}

// checkZeroFault runs q online over tr with no faults and offline through
// LightDB-like's Execute, and checks that both write the reference's
// bytes, that every frame of the clip is received, the ones a query drops
// included, and that none is lost.
func checkZeroFault(t *testing.T, ds *Dataset, tr OnlineTransport, q queries.QueryID, p queries.Params, frames int, want *video.Video) {
	t.Helper()
	inst := onlineInstance(t, ds, q, p)
	offline, online := vdbmstest.NewCollectSink(), vdbmstest.NewCollectSink()
	if err := ldb.Execute(inst, offline); err != nil {
		t.Fatal(err)
	}
	rep, err := RunOnlineOpts(context.Background(), ldb, inst, OnlineOptions{
		Transport: tr,
		Clock:     stream.NewFakeClock(time.Unix(0, 0)),
		Sink:      online,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded || rep.FramesDropped != 0 || rep.Gaps != 0 || rep.Resyncs != 0 || rep.Retries != 0 || rep.Frames != frames {
		t.Errorf("clean run of %d frames reported %+v", frames, rep)
	}
	for name, v := range map[string]*video.Video{"online": online.Outputs["out"], "offline": offline.Outputs["out"]} {
		if v == nil || len(v.Frames) != len(want.Frames) {
			t.Fatalf("%s result is %v, want %d frames", name, v, len(want.Frames))
		}
		for i, f := range v.Frames {
			g := want.Frames[i]
			if f.W != g.W || f.H != g.H || !bytes.Equal(f.Y, g.Y) || !bytes.Equal(f.U, g.U) || !bytes.Equal(f.V, g.V) {
				t.Fatalf("%s frame %d differs from the reference", name, i)
			}
		}
	}
}

// A zero-fault online run of LightDB-like writes the bytes its offline
// Execute writes, and those are queries.RunQ*'s over the clip.
func TestRunOnlineZeroFaultByteIdentical(t *testing.T) {
	ds := testDataset(t)
	_, src := zeroFaultSource(t, ds)
	q5 := queries.Params{Alpha: 2, Beta: 2}
	cases := []struct {
		q   queries.QueryID
		p   queries.Params
		ref func() (*video.Video, error)
	}{
		{queries.Q2a, queries.Params{}, func() (*video.Video, error) { return queries.RunQ2a(src), nil }},
		{queries.Q5, q5, func() (*video.Video, error) { return queries.RunQ5(src, q5) }},
	}
	forEachTransport(t, func(t *testing.T, tr OnlineTransport) {
		for _, tc := range cases {
			t.Run(string(tc.q), func(t *testing.T) {
				want, err := tc.ref()
				if err != nil {
					t.Fatal(err)
				}
				checkZeroFault(t, ds, tr, tc.q, tc.p, len(src.Frames), want)
			})
		}
	})
}

// Online Q1 must select exactly the frames the plan-level FrameWindow
// declares — the same window every offline engine consumes.
func TestRunOnlineQ1MatchesFrameWindow(t *testing.T) {
	ds := testDataset(t)
	_, src := zeroFaultSource(t, ds)
	p := queries.Params{X1: 8, Y1: 8, X2: 72, Y2: 56, T1: 0.2, T2: 0.75}
	f1, f2, _ := queries.FrameWindow(queries.Q1, p, src.FPS, len(src.Frames))
	want, err := queries.RunQ1(src, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Frames) != f2-f1 {
		t.Fatalf("reference Q1 has %d frames, window [%d,%d)", len(want.Frames), f1, f2)
	}
	forEachTransport(t, func(t *testing.T, tr OnlineTransport) {
		checkZeroFault(t, ds, tr, queries.Q1, p, len(src.Frames), want)
	})
}

// Online Q2c must honor its parameters (class filter, boxes) exactly as
// the offline reference kernel does.
func TestRunOnlineQ2cMatchesOffline(t *testing.T) {
	ds := testDataset(t)
	in, src := zeroFaultSource(t, ds)
	p := queries.Params{Algorithm: "yolov2", Classes: []vcity.ObjectClass{vcity.ClassVehicle}}
	want, err := queries.RunQ2c(src, p, in.Env)
	if err != nil {
		t.Fatal(err)
	}
	forEachTransport(t, func(t *testing.T, tr OnlineTransport) {
		checkZeroFault(t, ds, tr, queries.Q2c, p, len(src.Frames), want)
	})
}

// Same seed, same plan ⇒ identical degradation accounting, run to run.
func TestRunOnlineFaultDeterminism(t *testing.T) {
	forEachTransport(t, testRunOnlineFaultDeterminism)
}

func testRunOnlineFaultDeterminism(t *testing.T, tr OnlineTransport) {
	ds := testDataset(t)
	run := func() *OnlineReport {
		inst := onlineInstance(t, ds, queries.Q2a, queries.Params{})
		rep, err := RunOnlineOpts(context.Background(), ldb, inst, OnlineOptions{
			Transport: tr,
			Clock:     stream.NewFakeClock(time.Unix(0, 0)),
			Faults:    &stream.FaultPlan{Seed: 77, Camera: "cam", DropRate: 0.1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Frames != b.Frames || a.FramesDropped != b.FramesDropped ||
		a.Gaps != b.Gaps || a.Resyncs != b.Resyncs || a.Degraded != b.Degraded {
		t.Errorf("same seed diverged:\n  %+v\n  %+v", a, b)
	}
	if !a.Degraded || a.Gaps == 0 || a.FramesDropped == 0 {
		t.Errorf("10%% drop left no trace: %+v", a)
	}
	// Every source frame is accounted exactly once: processed or dropped.
	total := len(onlineInstance(t, ds, queries.Q2a, queries.Params{}).Inputs[0].Encoded.Frames)
	if a.Frames+a.FramesDropped != total {
		t.Errorf("frames %d + dropped %d ≠ source %d", a.Frames, a.FramesDropped, total)
	}
}

// A different seed must yield a different (still valid) schedule.
func TestRunOnlineFaultSeedMatters(t *testing.T) {
	ds := testDataset(t)
	run := func(seed uint64) *OnlineReport {
		inst := onlineInstance(t, ds, queries.Q2a, queries.Params{})
		rep, err := RunOnlineOpts(context.Background(), ldb, inst, OnlineOptions{
			Transport: TransportRTP,
			Clock:     stream.NewFakeClock(time.Unix(0, 0)),
			Faults:    &stream.FaultPlan{Seed: seed, Camera: "cam", DropRate: 0.15},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	reports := map[int]bool{}
	for seed := uint64(1); seed <= 4; seed++ {
		reports[run(seed).FramesDropped] = true
	}
	if len(reports) < 2 {
		t.Error("four seeds produced identical drop counts — schedule not seed-keyed")
	}
}

// Transient dial failures retry with backoff and are reported.
func TestRunOnlineDialRetry(t *testing.T) {
	forEachTransport(t, testRunOnlineDialRetry)
}

func testRunOnlineDialRetry(t *testing.T, tr OnlineTransport) {
	ds := testDataset(t)
	inst := onlineInstance(t, ds, queries.Q2a, queries.Params{})
	clock := stream.NewFakeClock(time.Unix(0, 0))
	rep, err := RunOnlineOpts(context.Background(), ldb, inst, OnlineOptions{
		Transport: tr,
		Clock:     clock,
		Faults:    &stream.FaultPlan{Seed: 5, DialFailures: 2},
		Retry:     stream.RetryPolicy{Attempts: 4, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries != 2 {
		t.Errorf("Retries = %d, want 2", rep.Retries)
	}
	if !rep.Degraded {
		t.Error("retried run not marked degraded")
	}
	if want := len(inst.Inputs[0].Encoded.Frames); rep.Frames != want {
		t.Errorf("processed %d frames after retry, want %d", rep.Frames, want)
	}
}

// When retries are exhausted the dial error surfaces and nothing leaks.
func TestRunOnlineDialRetryExhausted(t *testing.T) {
	ds := testDataset(t)
	inst := onlineInstance(t, ds, queries.Q2a, queries.Params{})
	check := checkNoGoroutineLeak(t)
	_, err := RunOnlineOpts(context.Background(), ldb, inst, OnlineOptions{
		Transport: TransportRTP,
		Clock:     stream.NewFakeClock(time.Unix(0, 0)),
		Faults:    &stream.FaultPlan{Seed: 5, DialFailures: 10},
		Retry:     stream.RetryPolicy{Attempts: 3, Seed: 5},
	})
	if err == nil {
		t.Fatal("exhausted retries should fail")
	}
	check()
}

// Elapsed and FPS are measured on the injected clock: a fake-clock run
// reports the simulated capture rate, not wall time.
func TestRunOnlineFPSOnInjectedClock(t *testing.T) {
	ds := testDataset(t)
	inst := onlineInstance(t, ds, queries.Q2a, queries.Params{})
	clock := stream.NewFakeClock(time.Unix(0, 0))
	rep, err := RunOnlineOpts(context.Background(), ldb, inst, OnlineOptions{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	fps := inst.Inputs[0].Encoded.Config.FPS
	// The producer paces ~1s of video on the fake clock; an instant
	// consumer therefore reports roughly the capture rate (the kernel
	// itself costs zero fake time).
	if rep.FPS < float64(fps)*0.8 || rep.FPS > float64(fps)*2.5 {
		t.Errorf("FPS = %.1f on the fake clock, want ≈ capture rate %d", rep.FPS, fps)
	}
	if rep.Elapsed <= 0 {
		t.Error("no elapsed time on the injected clock")
	}
}
