package vcd

import (
	"errors"
	"fmt"
	"time"

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

// Q4 upsample caps in use (Options.MaxUpsamplePixels): the CLIs and the
// daemon run against generated datasets of any resolution; the
// model-scale experiments bound Q4's output lower so a comparison grid
// fits one machine.
const (
	UpsampleCapCLI   = 1 << 24
	UpsampleCapModel = 1 << 22
)

// Options configure a benchmark run. It is the one run configuration:
// the CLIs bind their flags onto it, vrserved builds it from a submit
// body, the experiments embed it, and the shard plane ships it to
// workers as JSON unchanged (DESIGN.md "One run configuration").
type Options struct {
	// Queries to execute, in benchmark order. Defaults to all.
	Queries []queries.QueryID `json:"queries,omitempty"`
	// InstancesPerScale is the batch multiplier: batch size = this × L
	// (the paper uses 4).
	InstancesPerScale int `json:"instances_per_scale,omitempty"`
	// Seed drives parameter sampling and input selection.
	Seed uint64 `json:"seed,omitempty"`
	// Mode is the result handling mode.
	Mode ResultMode `json:"mode"`
	// ResultStore receives written results in WriteMode (required for
	// that mode). It never crosses the wire: a shard worker told to
	// write stages results in a store of its own and ships them back.
	ResultStore vfs.Store `json:"-"`
	// Validate enables result validation against the reference
	// implementation / scene geometry.
	Validate bool `json:"validate,omitempty"`
	// ValidateFraction validates only the given fraction of instances
	// (1.0 = all, the default when Validate is set).
	ValidateFraction float64 `json:"validate_fraction,omitempty"`
	// MaxUpsamplePixels caps Q4 parameter draws (model-scale guard);
	// zero means the full paper domain.
	MaxUpsamplePixels int `json:"max_upsample_pixels,omitempty"`
	// Workers bounds how many query instances of a batch execute
	// concurrently. 0 selects the machine default (parallel.Default());
	// 1 executes serially. Instance ordering in reports and persisted
	// result names is identical at every worker count.
	Workers int `json:"workers,omitempty"`
	// Sequential forces the paper-faithful contention-free mode: one
	// instance at a time and no shared decoded-input cache, so each
	// measured instance sees the machine exactly as the paper's harness
	// did. It overrides Workers and DecodedCacheBytes.
	Sequential bool `json:"sequential,omitempty"`
	// DecodedCacheBytes budgets the shared decoded-input cache staged
	// inputs decode through. 0 selects DefaultDecodedCacheBytes;
	// negative disables the cache.
	DecodedCacheBytes int64 `json:"decoded_cache_bytes,omitempty"`
}

// WithDefaults fills the driver's defaults — the values Run itself
// uses — so a shard coordinator partitions and merges against the exact
// configuration its workers execute.
func (o Options) WithDefaults() Options {
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

// decodedCacheBudget resolves the shared decoded-input cache budget for
// the run (-1 = disabled).
func (o Options) decodedCacheBudget() int64 {
	if o.Sequential || o.DecodedCacheBytes < 0 {
		return -1
	}
	return o.DecodedCacheBytes
}

// InstanceResult records one executed query instance. It is also what
// a shard worker sends back: the JSON below is the wire form.
type InstanceResult struct {
	Elapsed    time.Duration       `json:"elapsed_ns"`
	Frames     int                 `json:"frames"`
	Err        *InstanceError      `json:"err,omitempty"`
	Validation *InstanceValidation `json:"validation,omitempty"`
}

// InstanceError is an instance's (or its validation's) failure as the
// report keeps it: the message, and whether it was resource exhaustion
// (a vdbms.ErrResource, e.g. Scanner-like Q4) — the one class the tally
// counts apart. It is made where the result is born, so a result reads
// the same in the process that executed it and across the shard wire.
type InstanceError struct {
	Msg      string `json:"msg"`
	Resource bool   `json:"resource,omitempty"`
}

func (e *InstanceError) Error() string { return e.Msg }

// instanceError converts err (nil stays nil).
func instanceError(err error) *InstanceError {
	if err == nil {
		return nil
	}
	var resErr *vdbms.ErrResource
	return &InstanceError{Msg: err.Error(), Resource: errors.As(err, &resErr)}
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
	// Record is the run's interval in the observability layer —
	// Telemetry, Trace, Events, EventsLost — present when metrics are
	// enabled (metrics.SetEnabled).
	metrics.Record
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
	r, err := NewBatchRunner(ds, sys, opt)
	if err != nil {
		return nil, err
	}
	report := &RunReport{System: sys.Name(), Scale: ds.Manifest.Scale, Mode: r.opt.Mode}
	iv := metrics.Begin()
	start := time.Now()
	for _, q := range r.opt.Queries {
		qr, err := r.runQueryBatch(q)
		if err != nil {
			return nil, fmt.Errorf("vcd: %s on %s: %w", q, sys.Name(), err)
		}
		report.Queries = append(report.Queries, *qr)
		// Systems "may optionally quiesce or restart upon completing a
		// batch" (§3.2): let the engine drop batch-scoped state so one
		// query's caches do not subsidize the next.
		r.Quiesce()
	}
	report.Elapsed = time.Since(start)
	report.DecodedCache = ds.DecodedCacheStats()
	report.Record = iv.End()
	r.Close()
	return report, nil
}

// runQueryBatch builds and executes one whole query batch.
func (r *BatchRunner) runQueryBatch(q queries.QueryID) (*QueryReport, error) {
	qr := &QueryReport{Query: q, System: r.sys.Name()}
	if !r.sys.Supports(q) {
		qr.Unsupported = true
		return qr, nil
	}
	insts, err := BuildBatch(r.ds, q, r.opt.InstancesPerScale*r.ds.Manifest.Scale, r.opt)
	if err != nil {
		return nil, err
	}
	qr.BatchSize = len(insts)
	idxs := make([]int, len(insts))
	tids := make([]metrics.TraceID, len(insts))
	for i := range idxs {
		idxs[i], tids[i] = i, instanceTrace(r.opt, q, i)
	}

	// Honor the engine's batch limit by splitting, as the paper's
	// authors did for LightDB on Q3/Q4: groups stay ordered (batch
	// splits are a sequencing contract with the engine), instances
	// within a group share the worker pool. Per-instance Elapsed remains
	// that instance's own wall clock; the batch Elapsed is the batch's.
	group := batchLimit(r.sys, q)
	if group <= 0 {
		group = len(insts)
	}
	qr.Instances = make([]InstanceResult, len(insts))
	iv := metrics.Begin()
	batchStart := time.Now()
	for lo := 0; lo < len(insts); lo += group {
		hi := min(lo+group, len(insts))
		r.execute(insts, idxs[lo:hi], tids[lo:hi], qr.Instances[lo:hi])
	}
	qr.Elapsed = time.Since(batchStart)
	r.validate(insts, idxs, tids, qr.Instances)
	qr.Tally(r.sys)
	qr.Telemetry = iv.Telemetry()
	return qr, nil
}

// execute is the driver's one instance loop, shared by whole batches
// (Run) and assigned subsets (RunSubset): insts[idxs[i]] runs on the
// bounded worker pool with its inputs pinned and lands in out[i], so
// reports and persisted result names are identical at every worker
// count.
func (r *BatchRunner) execute(insts []*vdbms.QueryInstance, idxs []int, tids []metrics.TraceID, out []InstanceResult) {
	run := func(worker, i int) {
		inst := insts[idxs[i]]
		unpin := r.ds.pinInputs(inst)
		out[i] = executeInstance(r.ds, r.sys, inst, r.opt, idxs[i], worker, tids[i], r.shard)
		unpin()
	}
	workers := parallel.Normalize(r.opt.Workers) // 1 when Sequential (WithDefaults)
	if workers <= 1 || len(idxs) <= 1 {
		for i := range idxs {
			run(0, i)
		}
		return
	}
	parallel.ForEachWorker(workers, len(idxs), func(w, i int) error {
		run(w, i)
		return nil
	})
}

// validate is the post-hoc validation pass over executed instances. It
// runs outside the measured window: the VCD's verification is not part
// of system execution time.
func (r *BatchRunner) validate(insts []*vdbms.QueryInstance, idxs []int, tids []metrics.TraceID, out []InstanceResult) {
	if !r.opt.Validate {
		return
	}
	for i := range out {
		res := &out[i]
		if res.Err != nil || res.Validation == nil {
			continue
		}
		sp := metrics.StartSpan(metrics.StageValidate)
		sp.Trace(tids[i])
		sp.Shard(r.shard)
		r.val.validate(insts[idxs[i]], res.Validation)
		sp.Frames(res.Frames)
		sp.End()
	}
}

// batchLimit is the engine's batch-size limit for q (0 = none).
func batchLimit(sys vdbms.System, q queries.QueryID) int {
	if bl, ok := sys.(vdbms.BatchLimiter); ok {
		return bl.MaxBatchSize(q)
	}
	return 0
}

// Tally fills the batch's derived fields from BatchSize and Instances:
// completions, resource failures and frames, the sub-batches the
// engine's batch limit forces, and the validation summary. The driver
// and the shard coordinator's merge both call it, so a merged report
// cannot count differently from a single-process one.
func (qr *QueryReport) Tally(sys vdbms.System) {
	qr.Completed, qr.ResourceErrors, qr.Frames, qr.BatchSplits = 0, 0, 0, 0
	for _, res := range qr.Instances {
		if res.Err == nil {
			qr.Completed++
			qr.Frames += res.Frames
		} else if res.Err.Resource {
			qr.ResourceErrors++
		}
	}
	if limit := batchLimit(sys, qr.Query); limit > 0 && qr.BatchSize > limit {
		qr.BatchSplits = (qr.BatchSize+limit-1)/limit - 1
	}
	qr.Validation = summarizeValidation(qr.Instances)
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
	sink := &resultSink{opt: opt, query: inst.Query, idx: idx}
	if opt.Validate && sampleForValidation(opt, idx) {
		sink.capture = &InstanceValidation{Outputs: map[string]*video.Video{}}
	}
	if tid != 0 {
		traceInputs(inst, tid)
	}
	start := time.Now()
	sp := metrics.StartSpan(metrics.StageExecute)
	sp.Worker(worker)
	sp.Trace(tid)
	sp.Shard(shard)
	res.Err = instanceError(sys.Execute(inst, sink))
	sink.abandon()
	res.Frames = sink.frames
	sp.Frames(res.Frames)
	sp.End()
	res.Elapsed = time.Since(start)
	res.Validation = sink.capture
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
