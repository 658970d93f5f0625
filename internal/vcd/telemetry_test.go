package vcd

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/vdbms"
	"repro/internal/vdbms/lightdblike"
	"repro/internal/vdbms/scannerlike"
	"repro/internal/video"
)

// requestStages are the request-level stages whose span counts are
// mode-invariant by design: decode spans are recorded once per logical
// decode request (cache hits included), execute once per instance,
// validate once per validated instance, result.encode once per emitted
// result. Work-level stages (codec.gop, container.seek) legitimately
// vary with the execution strategy and are excluded.
var requestStages = []metrics.Stage{
	metrics.StageDecode,
	metrics.StageExecute,
	metrics.StageValidate,
	metrics.StageResultEncode,
}

// TestTelemetryModeInvariance is the observability layer's determinism
// contract: enabling metrics must not change any run output (persisted
// result bytes, validation verdicts), and the request-level span counts
// must be identical between the paper-faithful sequential mode and
// 8-way concurrent execution — only the recorded timings may differ.
func TestTelemetryModeInvariance(t *testing.T) {
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
			// Uninstrumented baseline: what the run produces with the
			// observability layer compiled to no-ops.
			metrics.SetEnabled(false)
			plain := runForEquivalence(t, ds, eng.mk(), Options{Sequential: true})
			if plain.report.Telemetry != nil {
				t.Error("disabled metrics still produced run telemetry")
			}

			metrics.SetEnabled(true)
			t.Cleanup(func() { metrics.SetEnabled(false) })
			seq := runForEquivalence(t, ds, eng.mk(), Options{Sequential: true})
			wide := runForEquivalence(t, ds, eng.mk(), Options{Workers: 8})

			// Instrumentation must not perturb results in either mode.
			compareOutcomes(t, "instrumented sequential", plain, seq)
			compareOutcomes(t, "instrumented workers=8", plain, wide)

			if seq.report.Telemetry == nil || wide.report.Telemetry == nil {
				t.Fatal("enabled metrics produced no run telemetry")
			}
			if seq.report.Telemetry.WallMS <= 0 {
				t.Errorf("run telemetry wall clock = %g ms", seq.report.Telemetry.WallMS)
			}

			for qi := range seq.report.Queries {
				sq, wq := &seq.report.Queries[qi], &wide.report.Queries[qi]
				if sq.Telemetry == nil || wq.Telemetry == nil {
					t.Fatalf("%s: missing batch telemetry", sq.Query)
				}
				for _, stage := range requestStages {
					ss, ws := sq.Telemetry.Stage(stage), wq.Telemetry.Stage(stage)
					if ss.Count != ws.Count {
						t.Errorf("%s/%s: span count %d sequential vs %d workers=8",
							sq.Query, stage, ss.Count, ws.Count)
					}
					// Frames processed are mode-invariant for the stages
					// that count output frames; decode frame attribution
					// depends on the serving path (window vs window+seed),
					// so only its request count is compared.
					if stage != metrics.StageDecode && ss.Frames != ws.Frames {
						t.Errorf("%s/%s: frames %d sequential vs %d workers=8",
							sq.Query, stage, ss.Frames, ws.Frames)
					}
				}
				// Every executed batch must show decode and execute
				// activity with live latency distributions.
				for _, stage := range []metrics.Stage{metrics.StageDecode, metrics.StageExecute, metrics.StageValidate} {
					st := sq.Telemetry.Stage(stage)
					if st.Count == 0 {
						t.Errorf("%s/%s: no spans recorded", sq.Query, stage)
						continue
					}
					if st.P50MS <= 0 || st.P95MS <= 0 || st.P99MS <= 0 {
						t.Errorf("%s/%s: quantiles not positive: p50=%g p95=%g p99=%g",
							sq.Query, stage, st.P50MS, st.P95MS, st.P99MS)
					}
				}
			}

			// The concurrent run must show pool activity. (Workers is a
			// process-cumulative high-water mark, so only the >= bound is
			// meaningful here.)
			if wt := wide.report.Telemetry.Stage(metrics.StageExecute); wt.Workers < 2 {
				t.Errorf("workers=8 run observed %d execute workers, want >= 2", wt.Workers)
			}
		})
	}
}

// TestTelemetryDisabledByDefault pins the no-op default: a fresh run
// with metrics off must carry no telemetry and record no spans.
func TestTelemetryDisabledByDefault(t *testing.T) {
	if metrics.Enabled() {
		t.Fatal("metrics enabled at package default")
	}
	base := metrics.Capture()
	sp := metrics.StartSpan(metrics.StageExecute)
	sp.End()
	if d := metrics.Capture().Sub(base); d.Stage(metrics.StageExecute).Count != 0 {
		t.Fatal("disabled span recorded an observation")
	}
}

// chattySystem journals a burst of events on every Execute — more than
// the event ring holds — and otherwise is the engine it wraps.
type chattySystem struct{ vdbms.System }

func (s chattySystem) Execute(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	for i := 0; i < 1500; i++ {
		metrics.RecordEvent(metrics.Event{Kind: "test_chatter", Shard: -1, Count: i})
	}
	return s.System.Execute(inst, sink)
}

// TestRunCountsLostEvents: a run whose interval journals more events
// than the ring keeps says so — in the report, its summary and the
// summary's JSON — instead of presenting the surviving tail as the
// whole journal; a quiet run carries no such field.
func TestRunCountsLostEvents(t *testing.T) {
	ds := testDataset(t)
	metrics.SetEnabled(true)
	t.Cleanup(func() { metrics.SetEnabled(false) })
	opt := Options{Queries: []queries.QueryID{queries.Q1}, InstancesPerScale: 1, Mode: StreamingMode, Sequential: true}

	report, err := Run(ds, chattySystem{lightdblike.New(lightdblike.Options{})}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if report.EventsLost == 0 || report.EventsLost+uint64(len(report.Events)) != 1500 {
		t.Fatalf("1500 events in the interval: kept %d, lost %d", len(report.Events), report.EventsLost)
	}
	sum := Summarize(report)
	data, err := MarshalReport(sum)
	if err != nil {
		t.Fatal(err)
	}
	if sum.EventsLost != report.EventsLost || !strings.Contains(string(data), `"events_lost":`) {
		t.Errorf("summary dropped the loss count (%d): %s", sum.EventsLost, data[:min(len(data), 200)])
	}
	if c := sum.Canonical(); c.EventsLost != 0 || c.Events != nil || c.Trace != nil || c.Telemetry != nil {
		t.Error("Canonical kept part of the observability record")
	}

	quiet, err := Run(ds, lightdblike.New(lightdblike.Options{}), opt)
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := MarshalReport(Summarize(quiet)); quiet.EventsLost != 0 || strings.Contains(string(data), "events_lost") {
		t.Errorf("quiet run reports %d lost events", quiet.EventsLost)
	}
}

// TestFailedResultEncodeStillRecordsItsSpan: a result the encoder
// refuses (frames of two sizes) returns the error and leaves its
// result.encode span behind, like a failed decode does.
func TestFailedResultEncodeStillRecordsItsSpan(t *testing.T) {
	metrics.SetEnabled(true)
	t.Cleanup(func() { metrics.SetEnabled(false) })
	v := video.NewVideo(15)
	v.Append(video.NewFrame(32, 32))
	v.Append(video.NewFrame(16, 16))
	base := metrics.Capture()
	sink := &resultSink{opt: Options{Mode: StreamingMode}}
	err := sink.Emit("out", v)
	sink.abandon()
	if err == nil {
		t.Fatal("a video of mixed frame sizes encoded")
	}
	if n := metrics.Capture().Sub(base).Stage(metrics.StageResultEncode).Count; n != 1 {
		t.Errorf("failed result encode recorded %d spans, want 1", n)
	}
}
