package metrics

// Record is what one measured interval observed, in the form reports
// carry and files hold: a run's (vcd.RunReport, vcd.ReportSummary) or a
// whole invocation's (vcd.Artifact). Empty when metrics were off.
type Record struct {
	// Telemetry is the interval's per-stage latency histograms and the
	// scalar table's sections.
	Telemetry *Telemetry `json:"telemetry,omitempty"`
	// Trace summarises the interval's trace-tagged spans: per-instance
	// timelines with per-worker straggler attribution. Trace IDs are
	// deterministic (same seed + plan ⇒ same IDs), so single-process and
	// sharded runs of one plan are directly comparable.
	Trace *TraceReport `json:"trace,omitempty"`
	// Events is the interval's slice of the lifecycle event journal;
	// EventsLost counts the events of the interval the ring overwrote
	// before they were read (Trace.SpansLost is the spans' counterpart).
	Events     []Event `json:"events,omitempty"`
	EventsLost uint64  `json:"events_lost,omitempty"`
}

// Interval marks where a measured region begins in all three sinks —
// the scalar/histogram registry, the trace-span ring and the event
// journal. Begun with metrics off it stays inert: every reading is
// empty, whatever is enabled meanwhile.
type Interval struct {
	base         *Snapshot // nil: begun with metrics off
	trace, event uint64
}

// Begin marks the start of an interval.
func Begin() Interval {
	if !Enabled() {
		return Interval{}
	}
	base := Capture()
	return Interval{base: &base, trace: TraceSeq(), event: EventSeq()}
}

// Telemetry summarises the registry's share of the interval so far.
func (iv Interval) Telemetry() *Telemetry {
	if iv.base == nil {
		return nil
	}
	t := Capture().Sub(*iv.base)
	return &t
}

// Read returns the interval so far in the form that merges across
// processes: what a shard worker ships and its coordinator folds.
func (iv Interval) Read() (d *WireDelta, spans []TraceSpan, lost uint64) {
	if iv.base == nil {
		return nil, nil, 0
	}
	delta := Capture().Delta(*iv.base)
	spans, lost = TraceSpansSince(iv.trace)
	return &delta, spans, lost
}

// Close summarises a reading — the interval's own, or one a coordinator
// has merged its workers' into — and adds the interval's events.
func (iv Interval) Close(d *WireDelta, spans []TraceSpan, lost uint64) Record {
	if iv.base == nil {
		return Record{}
	}
	t := d.Telemetry()
	r := Record{Telemetry: &t, Trace: SummarizeTraces(spans, lost)}
	r.Events, r.EventsLost = EventsSince(iv.event)
	return r
}

// End is the single-process Close.
func (iv Interval) End() Record { return iv.Close(iv.Read()) }
