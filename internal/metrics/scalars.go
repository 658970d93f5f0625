package metrics

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync/atomic"
)

// The scalar table: every counter, gauge and high-water mark the
// registry keeps is declared once, by one row call below, and Capture,
// Snapshot.Delta, WireDelta.Merge, the Telemetry JSON, the -report
// lines and the Prometheus exposition are loops over the table. Which
// numbers exist, how each aggregates and what each is called is decided
// in this file and nowhere else: adding a counter is one row and its
// recording site (DESIGN.md §5.7 item 3).

// kind is how a scalar aggregates over time and across processes.
type kind uint8

const (
	counter kind = iota // monotonic: an interval is cur − prev, processes sum
	gauge               // instantaneous: an interval reports the later value, processes sum
	peak                // high-water mark: an interval reports the later value, processes take the max
)

// promTypes is the exposition TYPE of each kind.
var promTypes = [...]string{counter: "counter", gauge: "gauge", peak: "gauge"}

// group is one section of the serialized telemetry, in the order the
// sections appear in the Telemetry JSON and on the -report lines.
type group uint8

const (
	groupGauges group = iota
	groupFramePool
	groupCache
	groupOnline
	groupShard
	// groupSelf is the observability layer's own accounting: exported to
	// Prometheus, in no JSON section.
	groupSelf
	numGroups
)

var groups = [numGroups]struct {
	label    string // -report line prefix
	optional bool   // no JSON section while every row is zero
	always   bool   // -report prints the line even when it is all zeros
}{
	groupGauges:    {label: "pools", always: true},
	groupFramePool: {label: "frame pool"},
	groupCache:     {label: "decoded cache"},
	groupOnline:    {label: "online", optional: true},
	groupShard:     {label: "shard", optional: true},
}

// Scalar names one row of the table. The exported ones are recorded
// from other packages (Add, Set.Add) and must not be reassigned; the
// rest are fed inside this package.
type Scalar uint8

// scalar is one row: how the number aggregates and what each rendering
// calls it.
type scalar struct {
	kind     kind
	group    group
	key      string // JSON key within the group's section ("" for groupSelf)
	prom     string // Prometheus metric name
	help     string // Prometheus HELP text, and the README's "meaning"
	label    string // -report wording after the value ("" = not printed)
	omitZero bool   // left out of the JSON section and the report while zero
}

// maxScalars is the length of every per-scalar array (registry, sets,
// snapshots); row refuses to outgrow it.
const maxScalars = 48

// table is filled by the row calls below during package initialization,
// in declaration order: the Prometheus exposition order and, within a
// group, the JSON key order.
var table []scalar

// row declares one scalar. A key ending in ",omitempty" is left out of
// its JSON section and the report while zero, as a struct tag would.
func row(k kind, g group, key, prom, help, label string) Scalar {
	if len(table) == maxScalars {
		panic("metrics: the scalar table has outgrown maxScalars")
	}
	key, omitZero := strings.CutSuffix(key, ",omitempty")
	table = append(table, scalar{k, g, key, prom, help, label, omitZero})
	return Scalar(len(table) - 1)
}

// A peak declared directly after a gauge follows that gauge's
// high-water mark by itself (moveGauge, setGauge).
var (
	poolActive          = row(gauge, groupGauges, "pool_active", "vr_pool_active", "Worker pools currently running.", "")
	poolBusy            = row(gauge, groupGauges, "pool_busy", "vr_pool_busy", "Pool workers currently executing an item.", "")
	poolBusyPeak        = row(peak, groupGauges, "pool_busy_peak", "vr_pool_busy_peak", "High-water mark of busy pool workers.", "busy workers at peak")
	poolWorkers         = row(gauge, groupGauges, "pool_workers", "vr_pool_workers", "Total size of currently active pools.", "")
	poolWorkersPeak     = row(peak, groupGauges, "pool_workers_peak", "vr_pool_workers_peak", "High-water mark of registered pool workers.", "registered at peak")
	poolPanics          = row(counter, groupGauges, "pool_panics", "vr_pool_panics_total", "Recovered worker panics.", "panic(s)")
	cacheResident       = row(gauge, groupGauges, "cache_resident_bytes", "vr_cache_resident_bytes", "Decoded-input cache resident bytes.", "")
	cacheResidentPeak   = row(peak, groupGauges, "cache_resident_peak_bytes", "vr_cache_resident_peak_bytes", "High-water mark of cache resident bytes.", "")
	inflightDecodes     = row(gauge, groupGauges, "inflight_decode_windows", "vr_inflight_decode_windows", "Decode windows currently being filled.", "")
	inflightDecodesPeak = row(peak, groupGauges, "inflight_decode_windows_peak", "vr_inflight_decode_windows_peak", "High-water mark of in-flight decode windows.", "")

	// The decoded-input cache: lookup outcomes plus the range-decode
	// accounting pair — frames queries asked for, and frames the cache
	// reconstructed to serve them (window frames plus GOP-seed runs; ≤
	// requested when views overlap, ≥ when windows open mid-GOP).
	CacheHits      = row(counter, groupCache, "hits", "vr_decoded_cache_hits_total", "Decoded-input cache lookup hits.", "hits")
	CacheMisses    = row(counter, groupCache, "misses", "vr_decoded_cache_misses_total", "Decoded-input cache lookup misses.", "misses")
	CacheEvictions = row(counter, groupCache, "evictions", "vr_decoded_cache_evictions_total", "Decoded-input cache evictions.", "evictions")
	CacheRequested = row(counter, groupCache, "frames_requested", "vr_decoded_cache_frames_requested_total", "Frames requested from the decode layer.", "")
	CacheDecoded   = row(counter, groupCache, "frames_decoded", "vr_decoded_cache_frames_decoded_total", "Frames actually reconstructed by the decode layer.", "")

	// Copied in from internal/video at Capture: video cannot import this
	// package, so FramePool keeps its own three atomics.
	framePoolGets   = row(counter, groupFramePool, "gets", "vr_frame_pool_gets_total", "Frame pool Get calls.", "gets")
	framePoolPuts   = row(counter, groupFramePool, "puts", "vr_frame_pool_puts_total", "Frame pool Put calls.", "")
	framePoolAllocs = row(counter, groupFramePool, "allocs", "vr_frame_pool_allocs_total", "Frame pool fresh allocations.", "allocs")

	OnlineFrames   = row(counter, groupOnline, "frames", "vr_online_frames_total", "Frames delivered by online sessions.", "frames")
	OnlineDropped  = row(counter, groupOnline, "frames_dropped", "vr_online_frames_dropped_total", "Frames lost to transport faults.", "dropped")
	OnlineGaps     = row(counter, groupOnline, "gaps", "vr_online_gaps_total", "Sequence gaps observed online.", "gap(s)")
	OnlineResyncs  = row(counter, groupOnline, "resyncs", "vr_online_resyncs_total", "Keyframe resynchronizations.", "resync(s)")
	OnlineRetries  = row(counter, groupOnline, "retries", "vr_online_retries_total", "Online dial/accept retries.", "retry(ies)")
	OnlineDegraded = row(counter, groupOnline, "degraded_runs", "vr_online_degraded_runs_total", "Online runs that observed at least one fault.", "degraded run(s)")

	ShardWorkerFailures    = row(counter, groupShard, "worker_failures", "vr_shard_worker_failures_total", "Shard workers declared dead.", "worker failure(s)")
	ShardHeartbeatTimeouts = row(counter, groupShard, "heartbeat_timeouts", "vr_shard_heartbeat_timeouts_total", "Worker heartbeat deadlines missed.", "heartbeat timeout(s)")
	ShardReassignments     = row(counter, groupShard, "reassignments", "vr_shard_reassignments_total", "Assignments moved off dead workers.", "reassignment(s)")
	ShardRetriedInstances  = row(counter, groupShard, "retried_instances", "vr_shard_retried_instances_total", "Query instances re-executed after a failure.", "retried instance(s)")
	ShardDuplicateResults  = row(counter, groupShard, "duplicate_results", "vr_shard_duplicate_results_total", "Duplicate instance results dropped by first-wins dedup.", "duplicate(s)")
	ShardDialRetries       = row(counter, groupShard, "dial_retries", "vr_shard_dial_retries_total", "Worker dial attempts retried.", "dial retry(ies)")
	ShardConvFailures      = row(counter, groupShard, "conv_failures,omitempty", "vr_shard_conv_failures_total", "Worker-server conversations that ended in error.", "failed conversation(s)")

	// Copied in from the rings at Capture.
	eventsTotal           = row(counter, groupSelf, "", "vr_events_total", "Lifecycle events journaled.", "")
	eventsOverwritten     = row(counter, groupSelf, "", "vr_events_overwritten_total", "Journaled events overwritten before a cursor could read them.", "")
	traceSpansTotal       = row(counter, groupSelf, "", "vr_trace_spans_total", "Trace spans recorded.", "")
	traceSpansOverwritten = row(counter, groupSelf, "", "vr_trace_spans_overwritten_total", "Trace spans overwritten before a run could collect them.", "")
	telemetryErrors       = row(counter, groupSelf, "", "vr_telemetry_errors_total", "Errors reported to the telemetry error channel.", "")
)

// The per-stage scalars: every stage keeps one block of these beside
// its latency histogram. key is the StageTelemetry JSON key.
const (
	stageFrames = iota
	stageBytes
	stageHits
	stageMisses
	stageWorkers
	numStageScalars
)

var stageTable = [numStageScalars]scalar{
	stageFrames:  {kind: counter, key: "frames", prom: "vr_stage_frames_total", help: "Frames processed per stage."},
	stageBytes:   {kind: counter, key: "bytes", prom: "vr_stage_bytes_total", help: "Bytes processed per stage."},
	stageHits:    {kind: counter, key: "cache_hits", prom: "vr_stage_cache_hits_total", help: "Cache-served span outcomes per stage."},
	stageMisses:  {kind: counter, key: "cache_misses", prom: "vr_stage_cache_misses_total", help: "Decode-served span outcomes per stage."},
	stageWorkers: {kind: peak, key: "workers_seen", help: "One more than the highest pool worker index observed in the stage."},
}

// ratios are the derived values a serialized section carries after its
// rows.
var ratios = [...]struct {
	group      group
	key, label string
	of         func(v *values) float64
}{
	// The fraction of Gets served by a recycled frame rather than a
	// fresh allocation.
	{groupFramePool, "reuse_rate", "reuse rate", func(v *values) float64 { return fraction(v[framePoolGets]-v[framePoolAllocs], v[framePoolGets]) }},
	{groupCache, "hit_rate", "hit rate", func(v *values) float64 { return fraction(v[CacheHits], v[CacheHits]+v[CacheMisses]) }},
	// Frames decoded per frame requested: the range layer's amplification
	// factor (1.0 = perfectly aligned windows).
	{groupCache, "decode_ratio", "decode ratio", func(v *values) float64 { return fraction(v[CacheDecoded], v[CacheRequested]) }},
}

// fraction is num/den, 0 when den is 0.
func fraction(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// values is one reading of every scalar: a snapshot, an interval delta
// or a merged roll-up, depending on who holds it.
type values [maxScalars]int64

// delta writes the interval cur − prev into out, row by row by kind.
func delta(rows []scalar, out, cur, prev []int64) {
	for i := range rows {
		out[i] = cur[i]
		if rows[i].kind == counter {
			out[i] -= prev[i]
		}
	}
}

// merge folds another process's interval into into, row by row by kind.
func merge(rows []scalar, into, from []int64) {
	for i := range rows {
		if rows[i].kind != peak {
			into[i] += from[i]
		} else if from[i] > into[i] {
			into[i] = from[i]
		}
	}
}

// section serializes group g as the JSON object a Telemetry carries:
// the group's rows in table order, then its ratios. An optional group
// whose rows are all zero has no section.
func (v *values) section(g group) json.RawMessage {
	b, idle := []byte{'{'}, groups[g].optional
	for id := range table {
		row := &table[id]
		if row.group != g || row.omitZero && v[id] == 0 {
			continue
		}
		idle = idle && v[id] == 0
		b = strconv.AppendInt(append(b, `"`+row.key+`":`...), v[id], 10)
		b = append(b, ',')
	}
	if idle {
		return nil
	}
	for _, r := range ratios {
		if r.group == g {
			f, _ := json.Marshal(r.of(v)) // a quotient of two int64s is finite
			b = append(append(b, `"`+r.key+`":`...), f...)
			b = append(b, ',')
		}
	}
	b[len(b)-1] = '}'
	return b
}

// Add moves the process-wide counter s by n — for events with no
// narrower owner (a worker server's failed conversation, an online
// session's tallies).
func Add(s Scalar, n int64) { reg.vals[s].Add(n) }

// Set is a scoped counter set: an owner that reports its own share of
// some counters (one decoded cache, one shard run) counts into a Set,
// and every Add lands in the process-wide registry as well, so live
// snapshots and interval telemetry see the event without a handle on
// the owner. The zero Set is ready to use.
type Set struct {
	vals [maxScalars]atomic.Int64
}

// Add moves counter s by n, here and in the process registry.
func (c *Set) Add(s Scalar, n int64) {
	c.vals[s].Add(n)
	reg.vals[s].Add(n)
}

// Value returns this set's share of s.
func (c *Set) Value(s Scalar) int64 { return c.vals[s].Load() }

// moveGauge shifts gauge s by delta; setGauge stores it. Either way a
// peak declared directly after s in the table follows it up.
func moveGauge(s Scalar, delta int64) {
	if v := reg.vals[s].Add(delta); delta > 0 {
		trackPeak(s, v)
	}
}

func setGauge(s Scalar, v int64) {
	reg.vals[s].Store(v)
	trackPeak(s, v)
}

func trackPeak(s Scalar, v int64) {
	if next := int(s) + 1; next < len(table) && table[next].kind == peak {
		observeMax(&reg.vals[next], v)
	}
}

// observeMax folds one observation into a high-water mark: a CAS loop
// that only contends when the maximum actually advances.
func observeMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}
