package vcd

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/queries"
	"repro/internal/vdbms"
)

// BatchRunner is one configured (dataset, engine, options) execution
// context, and the batch loop's local placement: Run drives whole
// batches through it and a shard worker drives its assigned indices, so
// both take the same path — pinning, spans, result naming by global
// index. Batches are deterministic functions of (dataset, query, seed),
// so a worker rebuilds the full batch locally from the job options and
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
	// The batch Begin built.
	query queries.QueryID
	insts []*vdbms.QueryInstance
}

var _ Placement = (*BatchRunner)(nil)

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

func (r *BatchRunner) InProcess() bool             { return true }
func (r *BatchRunner) Start(context.Context) error { return nil }

// Begin builds q's whole batch of n instances, whichever of them the
// runner is then given to execute.
func (r *BatchRunner) Begin(q queries.QueryID, n int) error {
	insts, err := BuildBatch(r.ds, q, n, r.opt)
	if err != nil {
		return err
	}
	r.query, r.insts = q, insts
	return nil
}

// Execute runs the batch's instances at idxs on the bounded worker pool,
// inputs pinned; results and persisted names follow the global index,
// so reports are identical at every worker count and shard.
func (r *BatchRunner) Execute(_ context.Context, idxs []int, out []InstanceResult) error {
	for _, idx := range idxs {
		if idx < 0 || idx >= len(r.insts) {
			return fmt.Errorf("vcd: index %d outside batch of %d", idx, len(r.insts))
		}
	}
	run := func(worker, i int) {
		inst := r.insts[idxs[i]]
		unpin := r.ds.pinInputs(inst)
		out[i] = executeInstance(r.ds, r.sys, inst, r.opt, idxs[i], worker, instanceTrace(r.opt, r.query, idxs[i]), r.shard)
		unpin()
	}
	workers := parallel.Normalize(r.opt.Workers) // 1 when Sequential (WithDefaults)
	if workers <= 1 || len(idxs) <= 1 {
		for i := range idxs {
			run(0, i)
		}
		return nil
	}
	return parallel.ForEachWorker(workers, len(idxs), func(w, i int) error {
		run(w, i)
		return nil
	})
}

// Settle validates the executed instances: the VCD's verification is
// not system execution time. The result writer persisted every payload.
func (r *BatchRunner) Settle(idxs []int, out []InstanceResult) (map[string][]byte, error) {
	if !r.opt.Validate {
		return nil, nil
	}
	for i := range out {
		res := &out[i]
		if res.Err != nil || res.Validation == nil {
			continue
		}
		sp := metrics.StartSpan(metrics.StageValidate)
		sp.Trace(instanceTrace(r.opt, r.query, idxs[i]))
		sp.Shard(r.shard)
		r.val.validate(r.insts[idxs[i]], res.Validation)
		sp.Frames(res.Frames)
		sp.End()
	}
	return nil, nil
}

// Quiesce lets the engine drop batch-scoped state between query
// batches, mirroring the driver's post-batch shutdown (§3.2).
func (r *BatchRunner) Quiesce() {
	if q, ok := r.sys.(interface{ Shutdown() }); ok {
		q.Shutdown()
	}
}

// Finish returns the decoded cache's counters: the run's interval saw
// the rest.
func (r *BatchRunner) Finish(context.Context) ([]Measured, error) {
	return []Measured{{Cache: r.CacheStats()}}, nil
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
