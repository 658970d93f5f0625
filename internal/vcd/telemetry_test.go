package vcd

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/vdbms"
	"repro/internal/vdbms/lightdblike"
	"repro/internal/video"
)

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
