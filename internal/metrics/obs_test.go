package metrics

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTraceIDDeterministic(t *testing.T) {
	a := InstanceTraceID(42, "Q2(b)", 7)
	b := InstanceTraceID(42, "Q2(b)", 7)
	if a != b {
		t.Fatalf("same (seed, query, index) minted %d and %d", a, b)
	}
	if a == 0 {
		t.Fatal("trace ID is zero (zero means untraced)")
	}
	if InstanceTraceID(42, "Q2(b)", 8) == a {
		t.Fatal("index must distinguish trace IDs")
	}
	if InstanceTraceID(43, "Q2(b)", 7) == a {
		t.Fatal("seed must distinguish trace IDs")
	}
	if InstanceTraceID(42, "Q2(c)", 7) == a {
		t.Fatal("query must distinguish trace IDs")
	}
	if BatchTraceID(42, "Q2(b)") == a {
		t.Fatal("batch and instance IDs for the same (seed, query) must differ")
	}
	if RunTraceID(42) == 0 || BatchTraceID(42, "Q1") == 0 {
		t.Fatal("run/batch trace IDs must be non-zero")
	}
}

func TestTraceIDNeverZero(t *testing.T) {
	for seed := uint64(0); seed < 64; seed++ {
		for idx := 0; idx < 16; idx++ {
			if InstanceTraceID(seed, "Q1", idx) == 0 {
				t.Fatalf("zero trace ID at seed=%d idx=%d", seed, idx)
			}
		}
	}
}

func TestRecordEventCursor(t *testing.T) {
	withMetrics(t)
	base := EventSeq()
	s1 := RecordEvent(Event{Kind: EventJobSubmitted, Shard: -1, Count: 3})
	s2 := RecordEvent(Event{Kind: EventShardAssigned, Shard: 1, Query: "Q1", Count: 4})
	s3 := RecordEvent(Event{Kind: EventMergeComplete, Shard: -1, Query: "Q1", Count: 8})
	if !(s1 > base && s2 > s1 && s3 > s2) {
		t.Fatalf("sequence numbers not strictly increasing: base=%d got %d,%d,%d", base, s1, s2, s3)
	}
	evs, _ := EventsSince(base)
	if len(evs) != 3 {
		t.Fatalf("EventsSince(base) returned %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: %d after %d", ev.Seq, evs[i-1].Seq)
		}
		if ev.TimeNS == 0 {
			t.Fatalf("event %d missing timestamp", ev.Seq)
		}
	}
	if evs[1].Kind != EventShardAssigned || evs[1].Query != "Q1" || evs[1].Shard != 1 {
		t.Fatalf("event payload mangled: %+v", evs[1])
	}
	// Cursor semantics: resuming from a mid-interval seq returns the tail.
	if tail, _ := EventsSince(s2); len(tail) != 1 || tail[0].Seq != s3 {
		t.Fatalf("EventsSince(%d) = %+v, want just seq %d", s2, tail, s3)
	}
	if rest, lost := EventsSince(s3); rest != nil || lost != 0 {
		t.Fatalf("EventsSince(latest) = %+v, want nil", rest)
	}
}

// TestEventsSinceLappedRing: a cursor older than the ring's capacity
// gets the last ring-full of items in sequence order and is told how
// many it lost — for the event journal and the trace ring alike (one
// ring implementation backs both).
func TestEventsSinceLappedRing(t *testing.T) {
	withMetrics(t)
	base := EventSeq()
	total := eventRingSize + 100
	for i := 0; i < total; i++ {
		RecordEvent(Event{Kind: EventShardAssigned, Shard: i})
	}
	evs, lost := EventsSince(base)
	if len(evs) != eventRingSize || lost != 100 {
		t.Fatalf("lapped journal returned %d events and lost %d, want the last %d and 100", len(evs), lost, eventRingSize)
	}
	want := base + uint64(total) - eventRingSize + 1
	for i, ev := range evs {
		if ev.Seq != want+uint64(i) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want+uint64(i))
		}
	}

	tbase := TraceSeq()
	for i := 0; i < traceRingSize+7; i++ {
		recordTraceSpan(TraceSpan{Trace: 1, Stage: "x", StartNS: int64(i)})
	}
	spans, lost := TraceSpansSince(tbase)
	if len(spans) != traceRingSize || lost != 7 {
		t.Fatalf("lapped trace ring returned %d spans and lost %d, want the last %d and 7", len(spans), lost, traceRingSize)
	}
	for i, sp := range spans {
		if sp.StartNS != int64(7+i) {
			t.Fatalf("span %d is the %dth recorded, want the %dth: a lapped ring must stay in order", i, sp.StartNS, 7+i)
		}
	}
	if s := Capture(); s.vals[eventsOverwritten] < 100 || s.vals[traceSpansOverwritten] < 7 {
		t.Fatalf("overwritten rows = %d events, %d spans; want at least 100 and 7", s.vals[eventsOverwritten], s.vals[traceSpansOverwritten])
	}
}

func TestDisabledObservabilityIsFree(t *testing.T) {
	SetEnabled(false)
	tid := InstanceTraceID(1, "Q1", 0)
	if allocs := testing.AllocsPerRun(1000, func() {
		RecordEvent(Event{Kind: EventWorkerDead, Shard: 2})
	}); allocs != 0 {
		t.Fatalf("disabled RecordEvent allocates %.1f objects per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		RecordSpanAt(StageShardGather, tid, 1, time.Time{}, time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("disabled RecordSpanAt allocates %.1f objects per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		sp := StartSpan(StageDecode)
		sp.Trace(tid)
		sp.Shard(3)
		sp.End()
	}); allocs != 0 {
		t.Fatalf("disabled traced span allocates %.1f objects per op, want 0", allocs)
	}
	if evs, _ := EventsSince(EventSeq() - 1); len(evs) != 0 && evs[len(evs)-1].Kind == EventWorkerDead && evs[len(evs)-1].Shard == 2 {
		t.Fatal("disabled RecordEvent reached the journal")
	}
}

func TestTracedSpanLandsInRing(t *testing.T) {
	withMetrics(t)
	base := TraceSeq()
	tid := InstanceTraceID(9, "Q5", 3)
	sp := StartSpan(StageExecute)
	sp.Trace(tid)
	sp.Shard(2)
	sp.Worker(1)
	sp.End()
	spans, _ := TraceSpansSince(base)
	if len(spans) != 1 {
		t.Fatalf("got %d trace spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Trace != tid || s.Stage != StageExecute.String() || s.Shard != 2 || s.Worker != 1 {
		t.Fatalf("span mangled: %+v", s)
	}
	if s.DurNS < 0 || s.StartNS == 0 {
		t.Fatalf("span timing missing: %+v", s)
	}
	// Untraced spans stay out of the ring.
	sp2 := StartSpan(StageExecute)
	sp2.End()
	if got, _ := TraceSpansSince(base); len(got) != 1 {
		t.Fatalf("untraced span leaked into the ring: %d spans", len(got))
	}
}

func TestSummarizeTracesStragglers(t *testing.T) {
	execName := StageExecute.String()
	mkInst := func(tid TraceID, shard int32, startMS, durMS int64) TraceSpan {
		return TraceSpan{Trace: tid, Stage: execName, Shard: shard, Worker: 0,
			StartNS: startMS * 1e6, DurNS: durMS * 1e6}
	}
	spans := []TraceSpan{
		// Shard 0: two fast instances. Shard 1: one slow straggler.
		mkInst(101, 0, 0, 10),
		mkInst(102, 0, 5, 10),
		mkInst(201, 1, 0, 80),
		// A batch-level merge span: contributes to Spans, not Instances.
		{Trace: 900, Stage: StageShardMerge.String(), Shard: -1, StartNS: 90e6, DurNS: 1e6},
	}
	rep := SummarizeTraces(spans, 0)
	if rep == nil {
		t.Fatal("nil report for non-empty span set")
	}
	if rep.Spans != 4 || rep.Instances != 3 {
		t.Fatalf("Spans=%d Instances=%d, want 4 and 3", rep.Spans, rep.Instances)
	}
	if rep.SlowestShard != 1 {
		t.Fatalf("SlowestShard=%d, want 1", rep.SlowestShard)
	}
	// Shard totals: shard 0 = 20ms, shard 1 = 80ms; mean 50ms → ratio 1.6.
	if rep.StragglerRatio < 1.59 || rep.StragglerRatio > 1.61 {
		t.Fatalf("StragglerRatio=%.3f, want 1.6", rep.StragglerRatio)
	}
	if rep.CriticalPathMS != 80 {
		t.Fatalf("CriticalPathMS=%.1f, want 80", rep.CriticalPathMS)
	}
	if len(rep.Workers) != 2 || rep.Workers[0].Shard != 0 || rep.Workers[1].Shard != 1 {
		t.Fatalf("worker rows wrong: %+v", rep.Workers)
	}
	if rep.Workers[1].Instances != 1 || rep.Workers[1].MaxMS != 80 {
		t.Fatalf("straggler row wrong: %+v", rep.Workers[1])
	}
	// Timelines sort slowest-first.
	if len(rep.Timelines) != 3 || rep.Timelines[0].Trace != 201 {
		t.Fatalf("timelines not slowest-first: %+v", rep.Timelines)
	}
	if SummarizeTraces(nil, 0) != nil {
		t.Fatal("empty span set must summarize to nil")
	}
}

func TestSummarizeTracesJoinsStages(t *testing.T) {
	tid := TraceID(77)
	spans := []TraceSpan{
		{Trace: tid, Stage: StageDecode.String(), Shard: 1, StartNS: 2e6, DurNS: 3e6},
		{Trace: tid, Stage: StageExecute.String(), Shard: 1, StartNS: 0, DurNS: 10e6},
		{Trace: tid, Stage: StageValidate.String(), Shard: 1, StartNS: 10e6, DurNS: 5e6},
	}
	rep := SummarizeTraces(spans, 0)
	if rep.Instances != 1 || len(rep.Timelines) != 1 {
		t.Fatalf("want a single instance timeline, got %+v", rep)
	}
	tl := rep.Timelines[0]
	if tl.WallMS != 15 {
		t.Fatalf("timeline wall %.1fms, want 15 (first start to last end)", tl.WallMS)
	}
	if len(tl.Spans) != 3 || tl.Spans[0].Stage != StageExecute.String() {
		t.Fatalf("spans not in start order: %+v", tl.Spans)
	}
	if tl.Spans[1].OffsetMS != 2 {
		t.Fatalf("decode offset %.1fms, want 2", tl.Spans[1].OffsetMS)
	}
}

// promLine matches one exposition-format sample line.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|[+-]Inf|NaN)$`)

// validateProm is a minimal exposition-format (0.0.4) validator: every
// sample must follow a TYPE declaration for its family, values must
// parse, and histogram buckets must be cumulative and end in +Inf.
func validateProm(t *testing.T, text string) map[string]string {
	t.Helper()
	types := map[string]string{}
	lastBucket := map[string]float64{}
	samples := 0
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, parts[3])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form: %q", ln+1, line)
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: unparseable sample: %q", ln+1, line)
		}
		name, labels, value := m[1], m[2], m[3]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
				family = base
				break
			}
		}
		typ, ok := types[family]
		if !ok {
			t.Fatalf("line %d: sample %q precedes its TYPE declaration", ln+1, name)
		}
		var v float64
		if value == "+Inf" || value == "-Inf" || value == "NaN" {
			v = 0
		} else {
			f, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("line %d: bad sample value %q: %v", ln+1, value, err)
			}
			v = f
		}
		if typ == "histogram" && strings.HasSuffix(name, "_bucket") {
			series := family + stripLE(labels)
			if prev, ok := lastBucket[series]; ok && v < prev {
				t.Fatalf("line %d: non-cumulative bucket for %s: %g after %g", ln+1, series, v, prev)
			}
			lastBucket[series] = v
			if !strings.Contains(labels, "le=") {
				t.Fatalf("line %d: histogram bucket without le label: %q", ln+1, line)
			}
		}
		samples++
	}
	// Every histogram series must have closed with an +Inf bucket — the
	// renderer emits it last, so re-scan for it.
	for series := range lastBucket {
		if !strings.Contains(text, `le="+Inf"`) {
			t.Fatalf("histogram %s missing +Inf bucket", series)
		}
	}
	if samples == 0 {
		t.Fatal("exposition contained no samples")
	}
	return types
}

// stripLE removes the le label from a label set so cumulative checks
// key on the remaining labels.
func stripLE(labels string) string {
	i := strings.Index(labels, `le="`)
	if i < 0 {
		return labels
	}
	j := strings.Index(labels[i+4:], `"`)
	if j < 0 {
		return labels
	}
	return labels[:i] + labels[i+4+j+1:]
}

func TestWritePromValidExposition(t *testing.T) {
	withMetrics(t)
	// Put activity into a histogram, the shard counters, and the rings
	// so the exposition exercises every rendering shape.
	sp := StartSpan(StageShardGather)
	sp.Trace(1)
	sp.Shard(0)
	sp.End()
	Add(ShardWorkerFailures, 1)
	RecordEvent(Event{Kind: EventWorkerDead, Shard: 0})

	var buf strings.Builder
	WriteProm(&buf)
	types := validateProm(t, buf.String())

	for name, want := range map[string]string{
		"vr_metrics_enabled":             "gauge",
		"vr_stage_seconds":               "histogram",
		"vr_shard_worker_failures_total": "counter",
		"vr_shard_reassignments_total":   "counter",
		"vr_shard_dial_retries_total":    "counter",
		"vr_events_total":                "counter",
		"vr_trace_spans_total":           "counter",
		"vr_decoded_cache_hits_total":    "counter",
		"vr_online_frames_total":         "counter",
		"vr_pool_active":                 "gauge",
	} {
		if types[name] != want {
			t.Fatalf("metric %s has type %q, want %q", name, types[name], want)
		}
	}
	out := buf.String()
	if !strings.Contains(out, `vr_stage_seconds_bucket{stage="shard.gather",le="+Inf"}`) {
		t.Fatal("gather histogram missing its +Inf bucket")
	}
	if !strings.Contains(out, "vr_metrics_enabled 1") {
		t.Fatal("enabled gauge not 1 while metrics are on")
	}
}

func TestDebugEndpoints(t *testing.T) {
	withMetrics(t)
	base := EventSeq()
	RecordEvent(Event{Kind: EventJobSubmitted, Shard: -1, Count: 2})
	seq := RecordEvent(Event{Kind: EventMergeComplete, Shard: -1, Query: "Q1"})

	addr, closeFn, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()

	get := func(path string) (int, string, http.Header) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header
	}

	code, body, _ := get(fmt.Sprintf("/debug/events?since=%d", base))
	if code != http.StatusOK {
		t.Fatalf("/debug/events: status %d", code)
	}
	if !strings.Contains(body, `"kind": "job_submitted"`) || !strings.Contains(body, `"kind": "merge_complete"`) {
		t.Fatalf("/debug/events missing journaled events:\n%s", body)
	}
	// Cursor: from the last seq the journal is drained.
	if _, tail, _ := get(fmt.Sprintf("/debug/events?since=%d", seq)); strings.Contains(tail, "merge_complete") {
		t.Fatalf("cursor did not advance past seq %d:\n%s", seq, tail)
	}
	if code, _, _ := get("/debug/events?since=notanumber"); code != http.StatusBadRequest {
		t.Fatalf("bad cursor returned status %d, want 400", code)
	}

	code, body, hdr := get("/debug/prom")
	if code != http.StatusOK {
		t.Fatalf("/debug/prom: status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/debug/prom content type %q", ct)
	}
	validateProm(t, body)

	if code, body, _ := get("/debug/metrics"); code != http.StatusOK || !strings.Contains(body, "{") {
		t.Fatalf("/debug/metrics: status %d body %q", code, body)
	}
	if err := closeFn(); err != nil {
		t.Fatalf("clean close returned %v", err)
	}
}

func TestServeDebugCloseReportsListenerDeath(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr, closeFn := serveDebugOn(ln)
	// Confirm the server is actually serving before killing its listener
	// (the serve goroutine starts asynchronously).
	resp, err := http.Get("http://" + addr + "/debug/metrics")
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()
	// The listener dying underneath the server is a mid-run failure;
	// the closer must surface it rather than report a clean shutdown.
	ln.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get("http://" + addr + "/debug/metrics"); err != nil {
			break // serve loop has lost its listener
		}
		if time.Now().After(deadline) {
			t.Fatal("server still serving after its listener was closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let the serve goroutine publish its exit
	err = closeFn()
	if err == nil {
		t.Fatal("closer reported a clean shutdown after the listener died")
	}
	if !strings.Contains(err.Error(), "debug server") {
		t.Fatalf("close error %v not attributed to the debug server", err)
	}
	if err2 := closeFn(); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("second close returned %v, want the cached failure %v", err2, err)
	}
}

func TestServeDebugCloseIdempotent(t *testing.T) {
	_, closeFn, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := closeFn(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- closeFn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second close deadlocked")
	}
}

// BenchmarkTraceEventPath measures the trace/event layer's hot path —
// a trace-tagged span plus one journal record — with the registry
// disabled (default) or enabled (VR_OBS=1), to compare the two by hand.
func BenchmarkTraceEventPath(b *testing.B) {
	if os.Getenv("VR_OBS") == "1" {
		SetEnabled(true)
		b.Cleanup(func() { SetEnabled(false) })
	}
	tid := InstanceTraceID(1, "Q1", 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := StartSpan(StageShardGather)
		sp.Trace(tid)
		sp.Shard(1)
		sp.End()
		RecordEvent(Event{Kind: EventShardAssigned, Shard: 1, Count: 1})
	}
}
