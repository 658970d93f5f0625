package vcd

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/vdbms"
)

// BatchRunner is one configured (dataset, engine, options) execution
// context: Run drives whole batches through it and shard workers drive
// assigned subsets (RunSubset), so both take the same path — pinning,
// spans, result naming by global index — and a coordinator can merge
// subset results into a report identical to a single-process run.
// Batches are deterministic functions of (dataset, query, seed), so a
// worker rebuilds the full batch locally from the job options and
// executes only the global instance indices assigned to it; instance
// parameters never cross the wire. The runner configures the dataset's
// decoded cache once at construction (each worker process owns its
// cache) and hands its frames back at Close.
type BatchRunner struct {
	ds    *Dataset
	sys   vdbms.System
	opt   Options
	val   *validator
	shard int
	cache *decodedCache // the one it configured; nil when disabled
}

// NewBatchRunner prepares execution against ds with sys.
func NewBatchRunner(ds *Dataset, sys vdbms.System, opt Options) (*BatchRunner, error) {
	opt = opt.WithDefaults()
	if opt.Mode == WriteMode && opt.ResultStore == nil {
		return nil, errors.New("vcd: WriteMode requires a result store")
	}
	cache := ds.configureDecodedCache(opt.decodedCacheBudget())
	return &BatchRunner{ds: ds, sys: sys, opt: opt, val: newValidator(ds, opt), shard: -1, cache: cache}, nil
}

// SetShard tags the runner's spans with the shard (worker index) it
// executes as, for per-worker straggler attribution in merged trace
// reports. -1 (the default) means unsharded.
func (r *BatchRunner) SetShard(shard int) { r.shard = shard }

// IndexedResult is one executed instance tagged with its global batch
// index and the trace ID it executed under — what a shard result frame
// embeds.
type IndexedResult struct {
	Index int             `json:"index"`
	Trace metrics.TraceID `json:"trace,omitempty"`
	InstanceResult
}

// RunSubset builds the full batch for q and executes the instances at
// the given global indices, in ascending index order, on the runner's
// worker pool. Validation (when enabled and sampled for the index) runs
// after execution, outside each instance's measured window, exactly as
// the single-process driver does. Results are returned tagged with
// their global indices; persisted result names use the same indices, so
// subsets from different workers never collide.
//
// traces[i] is the coordinator-minted distributed trace ID of
// indices[i]; nil or a zero entry leaves the instance locally minted,
// which yields the same ID — trace IDs are deterministic — but carrying
// them over the wire keeps the worker oblivious to the minting policy.
func (r *BatchRunner) RunSubset(q queries.QueryID, indices []int, traces []metrics.TraceID) ([]IndexedResult, error) {
	if !r.sys.Supports(q) {
		return nil, nil
	}
	insts, err := BuildBatch(r.ds, q, r.opt.InstancesPerScale*r.ds.Manifest.Scale, r.opt)
	if err != nil {
		return nil, err
	}
	byIndex := make(map[int]metrics.TraceID, len(indices))
	for i, idx := range indices {
		if idx < 0 || idx >= len(insts) {
			return nil, fmt.Errorf("vcd: subset index %d outside batch of %d", idx, len(insts))
		}
		if i < len(traces) && traces[i] != 0 {
			byIndex[idx] = traces[i]
		} else {
			byIndex[idx] = instanceTrace(r.opt, q, idx)
		}
	}
	idxs := append([]int(nil), indices...)
	sort.Ints(idxs)
	tids := make([]metrics.TraceID, len(idxs))
	for i, idx := range idxs {
		tids[i] = byIndex[idx]
	}
	results := make([]InstanceResult, len(idxs))
	r.execute(insts, idxs, tids, results)
	r.validate(insts, idxs, tids, results)
	out := make([]IndexedResult, len(idxs))
	for i, idx := range idxs {
		out[i] = IndexedResult{Index: idx, Trace: tids[i], InstanceResult: results[i]}
	}
	return out, nil
}

// Quiesce lets the engine drop batch-scoped state between query
// batches, mirroring the driver's post-batch shutdown (§3.2).
func (r *BatchRunner) Quiesce() {
	if q, ok := r.sys.(interface{ Shutdown() }); ok {
		q.Shutdown()
	}
}

// Close ends the runner's use of its decoded cache: it quiesces the
// engine, then hands every frame of every resident window to video's
// frame registry, exactly once, so the next run on the dataset — the
// next batch of a benchmark, the next vrserved job on a shard worker —
// decodes into them instead of allocating. The cache's counters stay
// (CacheStats). Call it when no instance is running: an engine holds
// views of cached frames only while an instance runs, except
// Scanner-like's ingest tables, which Quiesce drops. Closing twice does
// nothing more.
func (r *BatchRunner) Close() {
	r.Quiesce()
	if r.cache != nil {
		r.cache.close()
	}
}

// CacheStats reports the runner's dataset decoded-cache activity — the
// per-worker counters a coordinator sums into the merged report.
func (r *BatchRunner) CacheStats() metrics.CacheStats {
	return r.ds.DecodedCacheStats()
}

// ResultNamePrefix returns the persisted-name prefix of one instance's
// result files (resultName with the per-output key stripped), letting a
// shard worker attribute store contents to the instance that wrote
// them.
func ResultNamePrefix(q queries.QueryID, idx int) string {
	return fmt.Sprintf("result-%s-%03d-", sanitize(string(q)), idx)
}
