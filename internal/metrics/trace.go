package metrics

import (
	"context"
	"fmt"
	rtrace "runtime/trace"
	"sync/atomic"
	"time"

	"repro/internal/video"
)

// This file is the pipeline observability layer: named stages, a
// package-level tracer recording per-stage latency histograms and
// throughput counters, and value-type spans cheap enough to wrap every
// pipeline unit of work (a rendered frame, a GOP decode chain, a query
// instance).
//
// Instrumentation is disabled by default; a disabled span is a single
// atomic load and nothing else — no clock read, no allocation — so the
// paper-faithful sequential measurement mode is unperturbed (see
// DESIGN.md §5.7 and the zero-allocation test). All recording sinks are
// atomics, so aggregation is index-stable under concurrency: any
// interleaving of the same spans yields the same counts and buckets.

// Stage identifies one instrumented pipeline stage.
type Stage uint8

// The instrumented stages, in pipeline order.
const (
	// StageRender is one VCG frame render.
	StageRender Stage = iota
	// StageEncode is one VCG frame encode.
	StageEncode
	// StageMux is one container mux of a finished camera clip.
	StageMux
	// StageSeek is one container index read or span extraction.
	StageSeek
	// StageDecode is one decoded-input request at the engine/driver
	// boundary (cache hits included, so request counts are invariant
	// across execution modes).
	StageDecode
	// StageGOPDecode is one GOP chain (or serial clip) reconstruction
	// inside the codec — the actual decode work behind StageDecode.
	StageGOPDecode
	// StageExecute is one query-instance execution.
	StageExecute
	// StageValidate is one instance validation.
	StageValidate
	// StageResultEncode is one result-video encode+mux inside the
	// measured execution window.
	StageResultEncode
	// StageOnline is one online (live-paced) query execution — the
	// full transport + decode + engine session of vcd.RunOnlineOpts.
	StageOnline
	// StageShardPartition is one query batch's instance partitioning at
	// the shard coordinator.
	StageShardPartition
	// StageShardDial is one worker connection + job handshake.
	StageShardDial
	// StageShardAssign is one assignment frame written to a worker.
	StageShardAssign
	// StageShardGather is one instance's scatter-to-arrival latency as
	// observed by the coordinator (assignment write to result frame).
	StageShardGather
	// StageShardMerge is one query batch's deterministic result merge.
	StageShardMerge

	numStages
)

var stageNames = [numStages]string{
	"vcg.render",
	"vcg.encode",
	"container.mux",
	"container.seek",
	"decode",
	"codec.gop",
	"execute",
	"validate",
	"result.encode",
	"online.stream",
	"shard.partition",
	"shard.dial",
	"shard.assign",
	"shard.gather",
	"shard.merge",
}

// String returns the stage's telemetry key.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// maxErrors bounds the telemetry error channel: an interval reports the
// last maxErrors errors recorded in it and counts the ones before.
const maxErrors = 16

// registry is the process-wide recording state. One registry (not one
// per run) keeps instrumentation reachable from every layer without
// plumbing; per-run views are interval deltas (Capture / Snapshot.Sub),
// which are exact because every sink is a monotonic counter or a fixed
// bucket array.
var reg struct {
	enabled atomic.Bool
	// stages holds each stage's latency histogram and its block of
	// per-stage scalars (stageTable).
	stages [numStages]struct {
		lat  Histogram
		vals [numStageScalars]atomic.Int64
	}
	// vals holds the live value of every row of the scalar table that
	// is fed in this process (the rest are copied in by Capture).
	vals [maxScalars]atomic.Int64
}

// errRing is the telemetry error channel.
var errRing = newRing[string](maxErrors)

// SetEnabled switches span recording on or off. Gauges and counters
// driven by existing subsystems keep updating either way (they predate
// the tracer); spans — the only per-unit-of-work clock reads — are
// gated here.
func SetEnabled(on bool) { reg.enabled.Store(on) }

// Enabled reports whether span recording is on.
func Enabled() bool { return reg.enabled.Load() }

// Span measures one unit of work in a stage. The zero Span (returned
// when instrumentation is disabled) is inert: every method is a no-op.
// Spans are values; start one with StartSpan, optionally attach frame/
// byte/worker/cache attributes, then End it exactly once.
type Span struct {
	start  time.Time
	region *rtrace.Region
	frames int64
	bytes  int64
	trace  TraceID
	worker int32
	shard  int32
	stage  Stage
	active bool
	hit    int8 // 0 unset, 1 hit, 2 miss
}

// background avoids a context allocation per span when runtime tracing
// is on.
var background = context.Background()

// StartSpan opens a span in the given stage. When Go execution tracing
// is active (runtime/trace.Start), the span also emits a user region,
// so `go tool trace` shows the pipeline's real schedule.
func StartSpan(stage Stage) Span {
	if !reg.enabled.Load() {
		return Span{}
	}
	sp := Span{stage: stage, active: true, worker: -1, shard: -1, start: time.Now()}
	if rtrace.IsEnabled() {
		sp.region = rtrace.StartRegion(background, stageNames[stage])
	}
	return sp
}

// Frames adds processed frames to the span.
func (sp *Span) Frames(n int) {
	if sp.active {
		sp.frames += int64(n)
	}
}

// Bytes adds processed bytes to the span.
func (sp *Span) Bytes(n int64) {
	if sp.active {
		sp.bytes += n
	}
}

// Worker tags the span with the pool worker index executing it.
func (sp *Span) Worker(w int) {
	if sp.active && w >= 0 {
		sp.worker = int32(w)
	}
}

// Trace tags the span with a distributed trace ID; on End, a traced
// span additionally lands in the trace ring for timeline
// reconstruction. Zero leaves the span untraced.
func (sp *Span) Trace(id TraceID) {
	if sp.active {
		sp.trace = id
	}
}

// Shard tags the span with the shard (worker process index) executing
// it, for per-worker straggler attribution.
func (sp *Span) Shard(s int) {
	if sp.active && s >= 0 {
		sp.shard = int32(s)
	}
}

// Cache records whether the span's work was served from a cache (hit)
// or had to be produced (miss).
func (sp *Span) Cache(hit bool) {
	if !sp.active {
		return
	}
	if hit {
		sp.hit = 1
	} else {
		sp.hit = 2
	}
}

// End closes the span, recording its latency and attributes. A span
// Ends at most once; Ending the zero span is a no-op.
func (sp *Span) End() {
	if !sp.active {
		return
	}
	sp.active = false
	if sp.region != nil {
		sp.region.End()
	}
	d := time.Since(sp.start)
	st := &reg.stages[sp.stage]
	st.lat.Record(d)
	if sp.trace != 0 {
		recordTraceSpan(TraceSpan{
			Trace: sp.trace, Stage: stageNames[sp.stage],
			Shard: sp.shard, Worker: sp.worker,
			StartNS: sp.start.UnixNano(), DurNS: int64(d),
		})
	}
	if sp.frames != 0 {
		st.vals[stageFrames].Add(sp.frames)
	}
	if sp.bytes != 0 {
		st.vals[stageBytes].Add(sp.bytes)
	}
	if sp.worker >= 0 {
		observeMax(&st.vals[stageWorkers], int64(sp.worker)+1)
	}
	switch sp.hit {
	case 1:
		st.vals[stageHits].Add(1)
	case 2:
		st.vals[stageMisses].Add(1)
	}
}

// RecordError appends an error to the telemetry error channel — the
// bounded per-process log surfaced in Telemetry.Errors (worker panics
// with stack traces land here). Like every other sink it is read by
// interval: a Delta lists the errors recorded between its two captures.
func RecordError(origin string, err error) {
	if err != nil {
		errRing.publish(errRing.claim(), origin+": "+err.Error())
	}
}

// Pool gauge hooks, called by internal/parallel (which cannot be
// imported from here).

// PoolStarted records a worker pool of the given size going active.
func PoolStarted(workers int) {
	moveGauge(poolActive, 1)
	moveGauge(poolWorkers, int64(workers))
}

// PoolFinished records the pool leaving.
func PoolFinished(workers int) {
	moveGauge(poolActive, -1)
	moveGauge(poolWorkers, int64(-workers))
}

// WorkerBusy records one pool worker starting an item.
func WorkerBusy() { moveGauge(poolBusy, 1) }

// WorkerIdle records the worker finishing the item.
func WorkerIdle() { moveGauge(poolBusy, -1) }

// PoolPanicked counts one recovered worker panic.
func PoolPanicked() { Add(poolPanics, 1) }

// Decode-layer gauge hooks, called by the VCD's decoded-input cache.

// CacheResident records the cache's current resident byte count.
func CacheResident(bytes int64) { setGauge(cacheResident, bytes) }

// DecodeInflight moves the in-flight decode-window gauge by delta
// (+1 when a fill starts, −1 when it lands).
func DecodeInflight(delta int64) { moveGauge(inflightDecodes, delta) }

// Snapshot is a point-in-time copy of every recording sink, the unit
// per-run telemetry deltas are computed from.
type Snapshot struct {
	captured time.Time
	stages   [numStages]WireStage
	vals     values
}

// Capture snapshots every sink. Two Captures bracket a measured region;
// their Sub is that region's telemetry.
func Capture() Snapshot {
	var s Snapshot
	s.captured = time.Now()
	for i := range reg.stages {
		st := &reg.stages[i]
		s.stages[i].Lat = st.lat.Snapshot()
		for j := range st.vals {
			s.stages[i].Scalars[j] = st.vals[j].Load()
		}
	}
	for id := range table {
		s.vals[id] = reg.vals[id].Load()
	}
	// Rows whose live value is kept elsewhere are copied in.
	s.vals[framePoolGets], s.vals[framePoolPuts], s.vals[framePoolAllocs] = video.PoolCounts()
	s.vals[eventsTotal], s.vals[eventsOverwritten] = int64(eventRing.last()), int64(eventRing.overwritten())
	s.vals[traceSpansTotal], s.vals[traceSpansOverwritten] = int64(traceRing.last()), int64(traceRing.overwritten())
	s.vals[telemetryErrors] = int64(errRing.last())
	return s
}
