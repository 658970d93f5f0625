package metrics

import (
	"sort"
	"time"
)

// Cross-process tracing: every query instance gets a deterministic
// 64-bit trace ID minted from (seed, query, index), so the coordinator,
// its workers, and a single-process run all agree on the ID without
// coordination — same seed + plan ⇒ same IDs (DESIGN.md §5.12). Spans
// tagged with a trace ID additionally land in a fixed-size lock-free
// ring, which the shard worker ships back in its summary and the
// coordinator folds into per-instance timelines with straggler
// attribution.

// TraceID identifies one traced unit of work (a query instance, or a
// run/batch-level coordinator stage). Zero means untraced.
type TraceID uint64

// FNV-1a and splitmix64 constants — the same stable-hash idiom the
// shard partitioner uses, so trace IDs are reproducible everywhere.
const (
	fnvOffset  = 14695981039346656037
	fnvPrime   = 1099511628211
	splitmixM1 = 0xbf58476d1ce4e5b9
	splitmixM2 = 0x94d049bb133111eb
)

func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= splitmixM1
	h ^= h >> 27
	h *= splitmixM2
	h ^= h >> 31
	return h
}

func fnvBytes(h uint64, bs ...byte) uint64 {
	for _, b := range bs {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// traceID finalizes a hash into a non-zero TraceID.
func traceID(h uint64) TraceID {
	id := mix64(h)
	if id == 0 {
		id = 1
	}
	return TraceID(id)
}

// InstanceTraceID mints the deterministic trace ID of one query
// instance: a pure function of the run seed, query name, and instance
// index, so coordinator and workers (and a single-process run of the
// same plan) derive identical IDs with no wire round-trip required.
func InstanceTraceID(seed uint64, query string, index int) TraceID {
	h := fnvBytes(fnvOffset,
		byte(seed), byte(seed>>8), byte(seed>>16), byte(seed>>24),
		byte(seed>>32), byte(seed>>40), byte(seed>>48), byte(seed>>56))
	h = fnvString(h, query)
	h = fnvBytes(h, '#', byte(index), byte(index>>8), byte(index>>16), byte(index>>24))
	return traceID(h)
}

// BatchTraceID mints the trace ID of one query batch's coordinator-side
// stages (partition, assign, merge) — same determinism contract as
// InstanceTraceID, distinguished by the absence of an index component.
func BatchTraceID(seed uint64, query string) TraceID {
	h := fnvBytes(fnvOffset,
		byte(seed), byte(seed>>8), byte(seed>>16), byte(seed>>24),
		byte(seed>>32), byte(seed>>40), byte(seed>>48), byte(seed>>56))
	h = fnvString(h, query)
	return traceID(h ^ fnvPrime)
}

// RunTraceID mints the trace ID for run-level stages (worker dial) that
// precede any particular query batch.
func RunTraceID(seed uint64) TraceID {
	h := fnvBytes(fnvOffset,
		byte(seed), byte(seed>>8), byte(seed>>16), byte(seed>>24),
		byte(seed>>32), byte(seed>>40), byte(seed>>48), byte(seed>>56))
	return traceID(h)
}

// TraceSpan is one completed, trace-tagged unit of work: what crosses
// the shard wire in worker summaries and what timelines are built from.
// Shard and Worker are -1 when unattributed.
type TraceSpan struct {
	Trace   TraceID `json:"trace"`
	Stage   string  `json:"stage"`
	Shard   int32   `json:"shard"`
	Worker  int32   `json:"worker"`
	StartNS int64   `json:"start_ns"` // wall clock, unix nanoseconds
	DurNS   int64   `json:"dur_ns"`
}

// traceRingSize bounds the trace-span ring; older spans are overwritten
// once the ring wraps.
const traceRingSize = 4096

var traceRing = newRing[TraceSpan](traceRingSize)

func recordTraceSpan(ts TraceSpan) { traceRing.publish(traceRing.claim(), ts) }

// RecordSpanAt records a completed unit of work into the stage's
// latency histogram and, when trace is non-zero, the trace ring — for
// callers that measure externally (the shard coordinator's
// result-arrival latencies, which start at scatter time).
func RecordSpanAt(stage Stage, trace TraceID, shard int, start time.Time, d time.Duration) {
	if !reg.enabled.Load() {
		return
	}
	reg.stages[stage].lat.Record(d)
	if trace != 0 {
		recordTraceSpan(TraceSpan{
			Trace: trace, Stage: stage.String(),
			Shard: int32(shard), Worker: -1,
			StartNS: start.UnixNano(), DurNS: int64(d),
		})
	}
}

// TraceSeq returns the number of trace spans recorded so far; capture
// it before a run and pass it to TraceSpansSince for the run's spans.
func TraceSeq() uint64 { return traceRing.last() }

// TraceSpansSince returns the spans recorded after sequence position
// since, oldest first, and how many of them were overwritten first:
// only the last traceRingSize spans are retrievable.
func TraceSpansSince(since uint64) (spans []TraceSpan, lost uint64) {
	return traceRing.span(since, traceRing.last())
}

// TimelineSpan is one span within an instance timeline, offset from the
// timeline's first span start.
type TimelineSpan struct {
	Stage    string  `json:"stage"`
	Shard    int32   `json:"shard"`
	Worker   int32   `json:"worker"`
	OffsetMS float64 `json:"offset_ms"`
	DurMS    float64 `json:"dur_ms"`
}

// InstanceTimeline is the reconstructed per-trace schedule: every span
// recorded under one trace ID, in start order. WallMS spans the first
// start to the last end — the instance's end-to-end path.
type InstanceTimeline struct {
	Trace   TraceID        `json:"trace"`
	Shard   int            `json:"shard"` // owning shard, -1 unsharded
	StartNS int64          `json:"start_ns"`
	WallMS  float64        `json:"wall_ms"`
	Spans   []TimelineSpan `json:"spans"`
}

// WorkerTraceStats summarizes one shard's instance latencies — the
// per-worker attribution straggler analysis reads.
type WorkerTraceStats struct {
	Shard     int     `json:"shard"`
	Instances int     `json:"instances"`
	TotalMS   float64 `json:"total_ms"`
	MeanMS    float64 `json:"mean_ms"`
	P99MS     float64 `json:"p99_ms"`
	MaxMS     float64 `json:"max_ms"`
}

// maxTimelines bounds the per-instance detail a report carries; the
// slowest timelines are kept and TimelinesDropped counts the rest.
const maxTimelines = 256

// TraceReport is the merged cross-process trace summary a run report
// carries: per-worker instance-latency stats, straggler attribution,
// and the slowest per-instance timelines.
type TraceReport struct {
	Spans int `json:"spans"`
	// SpansLost counts spans of the run's interval that the trace ring
	// overwrote before they were collected: the timelines below are
	// built without them.
	SpansLost uint64 `json:"spans_lost,omitempty"`
	Instances int    `json:"instances"`
	// Workers has one row per shard that executed instances, ordered by
	// shard id. Unsharded instances aggregate under shard -1.
	Workers []WorkerTraceStats `json:"workers,omitempty"`
	// SlowestShard is the shard with the largest total instance time
	// (-1 when nothing sharded ran) — the straggler.
	SlowestShard int `json:"slowest_shard"`
	// StragglerRatio is the slowest shard's total over the mean total
	// across shards; 1.0 is perfectly balanced.
	StragglerRatio float64 `json:"straggler_ratio,omitempty"`
	// P99InstanceMS is the p99 end-to-end instance latency across all
	// instances; CriticalPathMS is the slowest single instance — the
	// scatter–gather critical path.
	P99InstanceMS    float64            `json:"p99_instance_ms"`
	CriticalPathMS   float64            `json:"critical_path_ms"`
	Timelines        []InstanceTimeline `json:"timelines,omitempty"`
	TimelinesDropped int                `json:"timelines_dropped,omitempty"`
}

// SummarizeTraces reconstructs per-instance timelines from a span set
// and computes straggler attribution. A timeline is "an instance" when
// it contains an execute or gather span; run/batch-level traces (dial,
// assign, merge) contribute spans but not instance rows. lost is what
// the rings the spans came from reported as overwritten. Returns nil
// when there are no spans.
func SummarizeTraces(spans []TraceSpan, lost uint64) *TraceReport {
	if len(spans) == 0 {
		return nil
	}
	byTrace := make(map[TraceID][]TraceSpan)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	rep := &TraceReport{Spans: len(spans), SpansLost: lost, SlowestShard: -1}
	var timelines []InstanceTimeline
	var latencies []float64
	perShard := make(map[int]*WorkerTraceStats)
	execName := StageExecute.String()
	gatherName := StageShardGather.String()
	for tid, ts := range byTrace {
		sort.Slice(ts, func(i, j int) bool {
			if ts[i].StartNS != ts[j].StartNS {
				return ts[i].StartNS < ts[j].StartNS
			}
			return ts[i].Stage < ts[j].Stage
		})
		start, end := ts[0].StartNS, int64(0)
		shard, instance := -1, false
		tl := InstanceTimeline{Trace: tid, StartNS: start}
		for _, s := range ts {
			if e := s.StartNS + s.DurNS; e > end {
				end = e
			}
			if s.Stage == execName || s.Stage == gatherName {
				instance = true
			}
			if int(s.Shard) > shard {
				shard = int(s.Shard)
			}
			tl.Spans = append(tl.Spans, TimelineSpan{
				Stage: s.Stage, Shard: s.Shard, Worker: s.Worker,
				OffsetMS: float64(s.StartNS-start) / 1e6,
				DurMS:    float64(s.DurNS) / 1e6,
			})
		}
		tl.Shard = shard
		tl.WallMS = float64(end-start) / 1e6
		if !instance {
			continue
		}
		rep.Instances++
		latencies = append(latencies, tl.WallMS)
		st := perShard[shard]
		if st == nil {
			st = &WorkerTraceStats{Shard: shard}
			perShard[shard] = st
		}
		st.Instances++
		st.TotalMS += tl.WallMS
		if tl.WallMS > st.MaxMS {
			st.MaxMS = tl.WallMS
		}
		timelines = append(timelines, tl)
	}
	for _, st := range perShard {
		st.MeanMS = st.TotalMS / float64(st.Instances)
		rep.Workers = append(rep.Workers, *st)
	}
	sort.Slice(rep.Workers, func(i, j int) bool { return rep.Workers[i].Shard < rep.Workers[j].Shard })
	// Per-shard p99 over each shard's own instance latencies.
	for i := range rep.Workers {
		sh := rep.Workers[i].Shard
		var ls []float64
		for _, tl := range timelines {
			if tl.Shard == sh {
				ls = append(ls, tl.WallMS)
			}
		}
		rep.Workers[i].P99MS = quantileF(ls, 0.99)
	}
	rep.P99InstanceMS = quantileF(latencies, 0.99)
	var slowTotal, sumTotal float64
	sharded := 0
	for _, st := range rep.Workers {
		if st.Shard < 0 {
			continue
		}
		sharded++
		sumTotal += st.TotalMS
		if st.TotalMS > slowTotal {
			slowTotal = st.TotalMS
			rep.SlowestShard = st.Shard
		}
	}
	if sharded > 0 && sumTotal > 0 {
		rep.StragglerRatio = slowTotal / (sumTotal / float64(sharded))
	}
	sort.Slice(timelines, func(i, j int) bool {
		if timelines[i].WallMS != timelines[j].WallMS {
			return timelines[i].WallMS > timelines[j].WallMS
		}
		return timelines[i].Trace < timelines[j].Trace
	})
	if len(timelines) > 0 {
		rep.CriticalPathMS = timelines[0].WallMS
	}
	if len(timelines) > maxTimelines {
		rep.TimelinesDropped = len(timelines) - maxTimelines
		timelines = timelines[:maxTimelines]
	}
	rep.Timelines = timelines
	return rep
}

// quantileF returns the p-quantile of vs by nearest rank (exact, not
// bucketed — trace sets are small). Empty input returns 0.
func quantileF(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	return sorted[int(p*float64(len(sorted)-1))]
}
