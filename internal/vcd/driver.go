package vcd

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/queries"
	"repro/internal/vdbms"
	"repro/internal/vfs"
	"repro/internal/video"
)

// ResultMode selects what happens to query outputs, per Section 3.2 of
// the paper.
type ResultMode int

// Result modes.
const (
	// WriteMode persists each result to the result store; persistence
	// time is included in the measured batch time.
	WriteMode ResultMode = iota
	// StreamingMode discards results, avoiding the write overhead; the
	// evaluator must verify correctness separately.
	StreamingMode
)

// Options configure a benchmark run.
type Options struct {
	// Queries to execute, in benchmark order. Defaults to all.
	Queries []queries.QueryID
	// InstancesPerScale is the batch multiplier: batch size = this × L
	// (the paper uses 4).
	InstancesPerScale int
	// Seed drives parameter sampling and input selection.
	Seed uint64
	// Mode is the result handling mode.
	Mode ResultMode
	// ResultStore receives written results in WriteMode (required for
	// that mode).
	ResultStore vfs.Store
	// Validate enables result validation against the reference
	// implementation / scene geometry.
	Validate bool
	// ValidateFraction validates only the given fraction of instances
	// (1.0 = all, the default when Validate is set).
	ValidateFraction float64
	// MaxUpsamplePixels caps Q4 parameter draws (model-scale guard);
	// zero means the full paper domain.
	MaxUpsamplePixels int
	// Workers bounds how many query instances of a batch execute
	// concurrently. 0 selects the machine default (parallel.Default());
	// 1 executes serially. Instance ordering in reports and persisted
	// result names is identical at every worker count.
	Workers int
	// Sequential forces the paper-faithful contention-free mode: one
	// instance at a time and no shared decoded-input cache, so each
	// measured instance sees the machine exactly as the paper's harness
	// did. It overrides Workers and DecodedCacheBytes.
	Sequential bool
	// DecodedCacheBytes budgets the shared decoded-input cache staged
	// inputs decode through. 0 selects DefaultDecodedCacheBytes;
	// negative disables the cache.
	DecodedCacheBytes int64
}

func (o Options) withDefaults() Options {
	if len(o.Queries) == 0 {
		o.Queries = queries.AllQueries
	}
	if o.InstancesPerScale <= 0 {
		o.InstancesPerScale = 4
	}
	if o.Validate && o.ValidateFraction <= 0 {
		o.ValidateFraction = 1
	}
	if o.Sequential {
		o.Workers = 1
	}
	return o
}

// queryWorkers resolves the effective instance-level concurrency.
func (o Options) queryWorkers() int {
	if o.Sequential {
		return 1
	}
	return parallel.Normalize(o.Workers)
}

// decodedCacheBudget resolves the shared decoded-input cache budget for
// the run (-1 = disabled).
func (o Options) decodedCacheBudget() int64 {
	if o.Sequential || o.DecodedCacheBytes < 0 {
		return -1
	}
	return o.DecodedCacheBytes
}

// InstanceResult records one executed query instance.
type InstanceResult struct {
	Elapsed    time.Duration
	Frames     int
	Err        error
	Validation *InstanceValidation
}

// QueryReport aggregates a query batch.
type QueryReport struct {
	Query       queries.QueryID
	System      string
	BatchSize   int
	Completed   int
	Unsupported bool
	// ResourceErrors counts instances that failed with ErrResource
	// (e.g. Scanner-like Q4).
	ResourceErrors int
	// BatchSplits counts extra sub-batches forced by the engine's
	// batch limit (LightDB-like Q3/Q4 past 40 videos).
	BatchSplits int
	Elapsed     time.Duration
	Frames      int
	Instances   []InstanceResult
	Validation  ValidationSummary
	// Telemetry is the batch's interval observability record (execution
	// plus its validation pass), present when metrics are enabled.
	Telemetry *metrics.Telemetry
}

// FPS returns the processed frame throughput of the batch.
func (r *QueryReport) FPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Frames) / r.Elapsed.Seconds()
}

// RunReport is the full benchmark result for one system.
type RunReport struct {
	System  string
	Scale   int
	Mode    ResultMode
	Queries []QueryReport
	Elapsed time.Duration
	// DecodedCache reports the shared decoded-input cache activity over
	// the run (zero when the cache is disabled).
	DecodedCache metrics.CacheStats
	// Telemetry is the run's interval observability record — per-stage
	// latency histograms, pool/cache gauges, frame-pool recycling —
	// present when metrics are enabled (metrics.SetEnabled).
	Telemetry *metrics.Telemetry
	// Trace is the run's distributed-trace summary: per-instance
	// timelines reconstructed from trace-tagged spans, with per-worker
	// straggler attribution. Present when metrics are enabled. Trace IDs
	// are deterministic (same seed + plan ⇒ same IDs), so single-process
	// and sharded runs of one plan are directly comparable.
	Trace *metrics.TraceReport
	// Events is the run's lifecycle event-journal interval (populated by
	// the shard plane; empty for single-process runs).
	Events []metrics.Event
}

// QueryReport returns the report for q, if present.
func (r *RunReport) QueryReport(q queries.QueryID) (*QueryReport, bool) {
	for i := range r.Queries {
		if r.Queries[i].Query == q {
			return &r.Queries[i], true
		}
	}
	return nil, false
}

// Run executes the benchmark: for each query, a batch of
// InstancesPerScale × L instances is created (uniform random parameters
// and inputs), submitted to the system, measured, and optionally
// validated. Batches are submitted in benchmark query order.
func Run(ds *Dataset, sys vdbms.System, opt Options) (*RunReport, error) {
	opt = opt.withDefaults()
	if opt.Mode == WriteMode && opt.ResultStore == nil {
		return nil, errors.New("vcd: WriteMode requires a result store")
	}
	report := &RunReport{System: sys.Name(), Scale: ds.Manifest.Scale, Mode: opt.Mode}
	ds.configureDecodedCache(opt.decodedCacheBudget())
	var runBase metrics.Snapshot
	var traceBase, eventBase uint64
	if metrics.Enabled() {
		runBase = metrics.Capture()
		traceBase = metrics.TraceSeq()
		eventBase = metrics.EventSeq()
	}
	start := time.Now()
	for _, q := range opt.Queries {
		qr, err := runQueryBatch(ds, sys, q, opt)
		if err != nil {
			return nil, fmt.Errorf("vcd: %s on %s: %w", q, sys.Name(), err)
		}
		report.Queries = append(report.Queries, *qr)
		// Systems "may optionally quiesce or restart upon completing a
		// batch" (§3.2): let the engine drop batch-scoped state so one
		// query's caches do not subsidize the next.
		if quiescer, ok := sys.(interface{ Shutdown() }); ok {
			quiescer.Shutdown()
		}
	}
	report.Elapsed = time.Since(start)
	report.DecodedCache = ds.DecodedCacheStats()
	if metrics.Enabled() {
		t := metrics.Capture().Sub(runBase)
		report.Telemetry = &t
		report.Trace = metrics.SummarizeTraces(metrics.TraceSpansSince(traceBase))
		report.Events = metrics.EventsSince(eventBase)
	}
	return report, nil
}

// runQueryBatch builds and executes one query batch.
func runQueryBatch(ds *Dataset, sys vdbms.System, q queries.QueryID, opt Options) (*QueryReport, error) {
	qr := &QueryReport{Query: q, System: sys.Name()}
	if !sys.Supports(q) {
		qr.Unsupported = true
		return qr, nil
	}
	batch := opt.InstancesPerScale * ds.Manifest.Scale
	insts, err := BuildBatch(ds, q, batch, opt)
	if err != nil {
		return nil, err
	}
	qr.BatchSize = len(insts)

	// Honor the engine's batch limit by splitting, as the paper's
	// authors did for LightDB on Q3/Q4.
	limit := 0
	if bl, ok := sys.(vdbms.BatchLimiter); ok {
		limit = bl.MaxBatchSize(q)
	}
	groups := [][]*vdbms.QueryInstance{insts}
	if limit > 0 && len(insts) > limit {
		groups = nil
		for i := 0; i < len(insts); i += limit {
			end := i + limit
			if end > len(insts) {
				end = len(insts)
			}
			groups = append(groups, insts[i:end])
		}
		qr.BatchSplits = len(groups) - 1
	}

	// Instances within a group execute concurrently on a bounded worker
	// pool; groups stay ordered (batch splits are a sequencing contract
	// with the engine). Each result lands at its global instance index,
	// so reports and persisted result names are identical at every
	// worker count. Per-instance Elapsed remains that instance's own
	// wall clock; the batch Elapsed is the batch's wall clock.
	workers := opt.queryWorkers()
	results := make([]InstanceResult, len(insts))
	validator := newValidator(ds, opt)
	var batchBase metrics.Snapshot
	if metrics.Enabled() {
		batchBase = metrics.Capture()
	}
	batchStart := time.Now()
	base := 0
	for _, group := range groups {
		group, gbase := group, base
		run := func(worker, i int) {
			inst := group[i]
			unpin := ds.pinInputs(inst)
			results[gbase+i] = executeInstance(ds, sys, inst, opt, gbase+i, worker, instanceTrace(opt, q, gbase+i), -1)
			unpin()
		}
		if workers <= 1 || len(group) <= 1 {
			for i := range group {
				run(0, i)
			}
		} else {
			parallel.ForEachWorker(workers, len(group), func(w, i int) error {
				run(w, i)
				return nil
			})
		}
		base += len(group)
	}
	qr.Elapsed = time.Since(batchStart)
	for _, res := range results {
		var resErr *vdbms.ErrResource
		if errors.As(res.Err, &resErr) {
			qr.ResourceErrors++
		} else if res.Err == nil {
			qr.Completed++
			qr.Frames += res.Frames
		}
	}
	qr.Instances = results

	if opt.Validate {
		// Validation runs outside the measured window, as the VCD's
		// verification is not part of system execution time.
		for i := range qr.Instances {
			res := &qr.Instances[i]
			if res.Err != nil || res.Validation == nil {
				continue
			}
			sp := metrics.StartSpan(metrics.StageValidate)
			sp.Trace(instanceTrace(opt, q, i))
			validator.validate(insts[i], res.Validation)
			sp.Frames(res.Frames)
			sp.End()
		}
		qr.Validation = validator.summary(qr.Instances)
	}
	if metrics.Enabled() {
		t := metrics.Capture().Sub(batchBase)
		qr.Telemetry = &t
	}
	return qr, nil
}

// instanceTrace mints the instance's deterministic trace ID when
// instrumentation is on — a pure function of the run seed, query, and
// global instance index, so every process executing the plan agrees.
func instanceTrace(opt Options, q queries.QueryID, idx int) metrics.TraceID {
	if !metrics.Enabled() {
		return 0
	}
	return metrics.InstanceTraceID(opt.Seed, string(q), idx)
}

// traceInputs retags the instance's input handles with the trace ID via
// shallow copies: the underlying handles are shared per camera across
// instances, so the per-instance ID must never be written through the
// shared pointer. Pinning and caching key on the input name, which the
// copies preserve.
func traceInputs(inst *vdbms.QueryInstance, tid metrics.TraceID) {
	for i, in := range inst.Inputs {
		if in.Trace == tid {
			continue
		}
		c := *in
		c.Trace = tid
		inst.Inputs[i] = &c
	}
}

// executeInstance runs one instance through the system, capturing
// outputs for validation and handling the result mode. worker is the
// pool worker index executing the instance, tagged on its span; tid is
// the instance's distributed trace ID (0 untraced) and shard the
// executing shard (-1 single-process), threaded onto the execute span
// and the instance's decode spans.
func executeInstance(ds *Dataset, sys vdbms.System, inst *vdbms.QueryInstance, opt Options, idx, worker int, tid metrics.TraceID, shard int) InstanceResult {
	var res InstanceResult
	var capture *InstanceValidation
	wantValidate := opt.Validate && sampleForValidation(opt, idx)
	if wantValidate {
		capture = &InstanceValidation{Outputs: map[string]*video.Video{}}
	}
	sink := vdbms.SinkFunc(func(key string, v *video.Video) error {
		res.Frames += len(v.Frames)
		if capture != nil {
			capture.Outputs[key] = v
		}
		// Per §3.2 the result of a query is an H264- or HEVC-encoded
		// video in both modes; streaming mode merely discards it
		// instead of persisting it. Encoding is therefore always part
		// of the measured execution.
		payload, err := encodeResult(v)
		if err != nil {
			return err
		}
		if opt.Mode == WriteMode {
			return opt.ResultStore.Write(resultName(inst.Query, idx, key), payload)
		}
		return nil
	})
	if tid != 0 {
		traceInputs(inst, tid)
	}
	start := time.Now()
	sp := metrics.StartSpan(metrics.StageExecute)
	sp.Worker(worker)
	sp.Trace(tid)
	sp.Shard(shard)
	res.Err = sys.Execute(inst, sink)
	sp.Frames(res.Frames)
	sp.End()
	res.Elapsed = time.Since(start)
	res.Validation = capture
	return res
}

// sampleForValidation deterministically picks which instances are
// validated under ValidateFraction.
func sampleForValidation(opt Options, idx int) bool {
	if opt.ValidateFraction >= 1 {
		return true
	}
	// Validate every k-th instance.
	k := int(1 / opt.ValidateFraction)
	if k < 1 {
		k = 1
	}
	return idx%k == 0
}

// encodeResult compresses a result video into a muxed container
// payload — the encoded form every query result takes in both result
// modes.
func encodeResult(v *video.Video) ([]byte, error) {
	if len(v.Frames) == 0 {
		return nil, nil
	}
	sp := metrics.StartSpan(metrics.StageResultEncode)
	sp.Frames(len(v.Frames))
	w, h := v.Resolution()
	enc, err := codec.EncodeVideo(v, codec.Config{
		Width: w, Height: h, FPS: v.FPS, QP: 18,
	})
	if err != nil {
		return nil, fmt.Errorf("vcd: encoding result: %w", err)
	}
	var buf resultBuffer
	if err := container.Mux(&buf, enc, nil); err != nil {
		return nil, err
	}
	sp.Bytes(int64(len(buf.data)))
	sp.End()
	return buf.data, nil
}

func resultName(q queries.QueryID, idx int, key string) string {
	return fmt.Sprintf("result-%s-%03d-%s.vrmf", sanitize(string(q)), idx, sanitize(key))
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

type resultBuffer struct{ data []byte }

func (b *resultBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}
