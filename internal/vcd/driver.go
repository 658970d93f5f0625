package vcd

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/metrics"
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
	// Online, when set, stages every instance's input as a live stream
	// (online.go). It never crosses the wire: the batch loop refuses it
	// on a remote placement.
	Online *OnlineOptions `json:"-"`
}

// WithDefaults fills the driver's defaults, so a shard coordinator and
// its workers run the exact same configuration.
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
	// Online is the instance's stream accounting, in an online run.
	Online *OnlineReport `json:"online,omitempty"`
}

// InstanceError is an instance's (or its validation's) failure as the
// report keeps it: the message, and whether it was resource exhaustion
// (vdbms.ErrResource, e.g. Scanner-like Q4), which the tally counts
// apart, or a capability gap (vdbms.ErrUnsupported, e.g. a live input
// to Scanner-like), which makes the batch unsupported. It is made where
// the result is born, so a result reads the same in the process that
// executed it and across the shard wire.
type InstanceError struct {
	Msg         string `json:"msg"`
	Resource    bool   `json:"resource,omitempty"`
	Unsupported bool   `json:"unsupported,omitempty"`
}

func (e *InstanceError) Error() string { return e.Msg }

// instanceError converts err (nil stays nil).
func instanceError(err error) *InstanceError {
	if err == nil {
		return nil
	}
	var resErr *vdbms.ErrResource
	var unsup *vdbms.ErrUnsupported
	return &InstanceError{Msg: err.Error(), Resource: errors.As(err, &resErr), Unsupported: errors.As(err, &unsup)}
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
	// Online sums the batch's stream accounting in an online run.
	Online *OnlineReport
	// Telemetry is the batch's interval observability record (execution
	// plus its validation pass), present when metrics are enabled.
	Telemetry *metrics.Telemetry
}

// FPS returns the processed frame throughput of the batch.
func (r *QueryReport) FPS() float64 { return rate(r.Frames, r.Elapsed) }

// rate is frames per second over d (0 when no time passed).
func rate(frames int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(frames) / d.Seconds()
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
// validated. Batches are submitted in benchmark query order, by the
// batch loop (RunPlaced) on the local worker pool.
func Run(ds *Dataset, sys vdbms.System, opt Options) (*RunReport, error) {
	r, err := NewBatchRunner(ds, sys, opt)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return RunPlaced(context.Background(), sys, ds.Manifest.Scale, r.opt, r)
}

// A Placement is where the batch loop (RunPlaced) runs a batch's
// instances: the local worker pool (BatchRunner) or shard's remote
// workers. It executes and validates; the loop owns everything else.
type Placement interface {
	// InProcess reports whether instances run in this process, the only
	// place an online staging can run.
	InProcess() bool
	// Start readies the run (a remote placement connects its workers).
	Start(ctx context.Context) error
	// Begin readies q's batch of n, outside its measured window. A
	// remote placement can only send work with Execute, so its workers
	// quiesce after the previous batch and build this one inside the
	// window, at the batch's first assignment.
	Begin(q queries.QueryID, n int) error
	// Execute runs the batch's instances at the ascending global indices
	// idxs into out[i], once per batch-limit group, in order.
	Execute(ctx context.Context, idxs []int, out []InstanceResult) error
	// Settle validates what Execute left unvalidated, after the measured
	// window, and returns the result payloads the loop is to persist.
	Settle(idxs []int, out []InstanceResult) (map[string][]byte, error)
	// Quiesce lets the engine drop batch-scoped state after a batch.
	Quiesce()
	// Finish ends the run with what each of its workers measured.
	Finish(ctx context.Context) ([]Measured, error)
}

// Measured is what one worker of a placement measured that the run's
// interval cannot see: its decoded-cache counters and, from a worker in
// another process, its telemetry delta and the trace spans it recorded
// (and how many its ring overwrote first). It is also a shard worker's
// final frame.
type Measured struct {
	Cache     metrics.CacheStats  `json:"cache"`
	Telemetry *metrics.WireDelta  `json:"telemetry,omitempty"`
	Spans     []metrics.TraceSpan `json:"spans,omitempty"`
	SpansLost uint64              `json:"spans_lost,omitempty"`
}

// RunPlaced is the one batch loop: it runs opt's query batches on p.
// sys answers Supports and the batch limit; scale is the dataset's L.
func RunPlaced(ctx context.Context, sys vdbms.System, scale int, opt Options, p Placement) (*RunReport, error) {
	opt = opt.WithDefaults()
	if opt.Mode == WriteMode && opt.ResultStore == nil {
		return nil, errors.New("vcd: WriteMode requires a result store")
	}
	if opt.Online != nil && !p.InProcess() {
		// Online options never cross the wire: remote workers would run
		// the batch offline without saying so.
		return nil, errors.New("shard: an online run stages its inputs in process; the shard plane cannot run it")
	}
	report := &RunReport{System: sys.Name(), Scale: scale, Mode: opt.Mode}
	iv := metrics.Begin()
	if err := p.Start(ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	for _, q := range opt.Queries {
		qr, err := runQueryBatch(ctx, sys, opt.InstancesPerScale*scale, opt, p, q)
		if err != nil {
			return nil, fmt.Errorf("vcd: %s on %s: %w", q, sys.Name(), err)
		}
		report.Queries = append(report.Queries, *qr)
		// Systems "may optionally quiesce or restart upon completing a
		// batch" (§3.2), so one query's caches do not subsidize the next.
		p.Quiesce()
	}
	report.Elapsed = time.Since(start)
	measured, err := p.Finish(ctx)
	if err != nil {
		return nil, err
	}
	d, spans, lost := iv.Read()
	for _, m := range measured {
		report.DecodedCache.Merge(m.Cache)
		if d != nil && m.Telemetry != nil {
			d.Merge(*m.Telemetry)
		}
		spans, lost = append(spans, m.Spans...), lost+m.SpansLost
	}
	report.Record = iv.Close(d, ownSpans(opt, scale, spans), lost)
	return report, nil
}

// runQueryBatch runs one whole query batch on p.
func runQueryBatch(ctx context.Context, sys vdbms.System, n int, opt Options, p Placement, q queries.QueryID) (*QueryReport, error) {
	qr := &QueryReport{Query: q, System: sys.Name()}
	if !sys.Supports(q) {
		qr.Unsupported = true
		return qr, nil
	}
	if err := p.Begin(q, n); err != nil {
		return nil, err
	}
	qr.BatchSize = n
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}

	// Honor the engine's batch limit by splitting, as the paper's
	// authors did for LightDB on Q3/Q4: groups stay ordered (batch
	// splits are a sequencing contract with the engine), instances
	// within a group share the placement. Per-instance Elapsed remains
	// that instance's own wall clock; the batch Elapsed is the batch's.
	group := batchLimit(sys, q)
	if group <= 0 {
		group = n
	}
	qr.Instances = make([]InstanceResult, n)
	iv := metrics.Begin()
	batchStart := time.Now()
	for lo := 0; lo < n; lo += group {
		hi := min(lo+group, n)
		if err := p.Execute(ctx, idxs[lo:hi], qr.Instances[lo:hi]); err != nil {
			return nil, err
		}
	}
	qr.Elapsed = time.Since(batchStart)
	for _, res := range qr.Instances {
		if res.Err != nil && res.Err.Unsupported {
			// The engine cannot run the query on this staging (a live
			// input): the batch is unsupported, not failed.
			return &QueryReport{Query: q, System: sys.Name(), Unsupported: true}, nil
		}
	}
	files, err := p.Settle(idxs, qr.Instances)
	if err != nil {
		return nil, err
	}
	var msp metrics.Span // a remote placement's gather ends in this merge
	if !p.InProcess() {
		msp = metrics.StartSpan(metrics.StageShardMerge)
		msp.Trace(metrics.BatchTraceID(opt.Seed, string(q)))
	}
	// Persisted in name order, whichever worker finished first.
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := opt.ResultStore.Write(name, files[name]); err != nil {
			msp.End()
			return nil, err
		}
	}
	qr.Tally(sys)
	msp.End()
	if !p.InProcess() {
		metrics.RecordEvent(metrics.Event{Kind: metrics.EventMergeComplete, Query: string(q),
			Trace: metrics.BatchTraceID(opt.Seed, string(q)), Count: n, Shard: -1})
	}
	qr.Telemetry = iv.Telemetry()
	return qr, nil
}

// ownSpans keeps the spans of the trace IDs the run minted: the rings
// are process-wide, and a daemon runs other jobs at the same time.
func ownSpans(opt Options, scale int, spans []metrics.TraceSpan) []metrics.TraceSpan {
	own := map[metrics.TraceID]bool{metrics.RunTraceID(opt.Seed): true}
	for _, q := range opt.Queries {
		own[metrics.BatchTraceID(opt.Seed, string(q))] = true
		for idx := 0; idx < opt.InstancesPerScale*scale; idx++ {
			own[metrics.InstanceTraceID(opt.Seed, string(q), idx)] = true
		}
	}
	kept := spans[:0]
	for _, sp := range spans {
		if own[sp.Trace] {
			kept = append(kept, sp)
		}
	}
	return kept
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
// engine's batch limit forces, the streams' summed accounting, and the
// validation summary. The batch loop is its one caller, whatever the
// placement, so a sharded report cannot count differently from a
// single-process one.
func (qr *QueryReport) Tally(sys vdbms.System) {
	qr.Completed, qr.ResourceErrors, qr.Frames, qr.BatchSplits, qr.Online = 0, 0, 0, 0, nil
	for _, res := range qr.Instances {
		if res.Online != nil {
			if qr.Online == nil {
				qr.Online = &OnlineReport{}
			}
			qr.Online.add(res.Online)
		}
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
// outputs for validation and handling the result mode; online, it reads
// a live session of its input (runOnline). worker is the pool worker
// index executing the instance, tagged on its span; tid is the
// instance's distributed trace ID (0 untraced) and shard the executing
// shard (-1 single-process), threaded onto the execute span and the
// instance's decode spans.
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
	var err error
	if o := opt.Online; o != nil {
		scoped := *o
		scoped.Faults = o.Faults.ForCamera(inst.Inputs[0].Env.Camera.ID)
		res.Online, err = runOnline(context.Background(), sys, inst, scoped, sink)
	} else {
		err = sys.Execute(inst, sink)
	}
	res.Err = instanceError(err)
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
