package vcd

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/queries"
	"repro/internal/vdbms"
)

// BatchRunner executes assigned subsets of query batches — the worker
// side of sharded execution. Batches are deterministic functions of
// (dataset, query, seed), so a worker rebuilds the full batch locally
// from the job options and executes only the global instance indices
// assigned to it; instance parameters never cross the wire. The runner
// configures the dataset's decoded cache once at construction (each
// worker process owns its cache), and reuses the driver's exact
// execution path — pinning, spans, result naming by global index — so
// a coordinator can merge subset results into a report identical to a
// single-process run.
type BatchRunner struct {
	ds    *Dataset
	sys   vdbms.System
	opt   Options
	val   *validator
	shard int
}

// NewBatchRunner prepares subset execution against ds with sys.
func NewBatchRunner(ds *Dataset, sys vdbms.System, opt Options) (*BatchRunner, error) {
	opt = opt.withDefaults()
	if opt.Mode == WriteMode && opt.ResultStore == nil {
		return nil, errors.New("vcd: WriteMode requires a result store")
	}
	ds.configureDecodedCache(opt.decodedCacheBudget())
	return &BatchRunner{ds: ds, sys: sys, opt: opt, val: newValidator(ds, opt), shard: -1}, nil
}

// SetShard tags the runner's spans with the shard (worker index) it
// executes as, for per-worker straggler attribution in merged trace
// reports. -1 (the default) means unsharded.
func (r *BatchRunner) SetShard(shard int) { r.shard = shard }

// IndexedResult is one executed instance tagged with its global batch
// index.
type IndexedResult struct {
	Index int
	InstanceResult
}

// RunSubset builds the full batch for q and executes the instances at
// the given global indices, in ascending index order, on the runner's
// worker pool. Validation (when enabled and sampled for the index) runs
// after execution, outside each instance's measured window, exactly as
// the single-process driver does. Results are returned tagged with
// their global indices; persisted result names use the same indices, so
// subsets from different workers never collide.
func (r *BatchRunner) RunSubset(q queries.QueryID, indices []int) ([]IndexedResult, error) {
	return r.RunSubsetTraced(q, indices, nil)
}

// RunSubsetTraced is RunSubset with coordinator-minted trace IDs:
// traces[i] is the distributed trace ID of indices[i] (nil or a zero
// entry leaves the instance locally minted, which yields the same ID —
// trace IDs are deterministic — but carrying them over the wire keeps
// the worker oblivious to the minting policy).
func (r *BatchRunner) RunSubsetTraced(q queries.QueryID, indices []int, traces []metrics.TraceID) ([]IndexedResult, error) {
	if !r.sys.Supports(q) {
		return nil, nil
	}
	batch := r.opt.InstancesPerScale * r.ds.Manifest.Scale
	insts, err := BuildBatch(r.ds, q, batch, r.opt)
	if err != nil {
		return nil, err
	}
	tids := make(map[int]metrics.TraceID, len(indices))
	for i, idx := range indices {
		if i < len(traces) && traces[i] != 0 {
			tids[idx] = traces[i]
		} else {
			tids[idx] = instanceTrace(r.opt, q, idx)
		}
	}
	idxs := append([]int(nil), indices...)
	sort.Ints(idxs)
	for _, idx := range idxs {
		if idx < 0 || idx >= len(insts) {
			return nil, fmt.Errorf("vcd: subset index %d outside batch of %d", idx, len(insts))
		}
	}
	out := make([]IndexedResult, len(idxs))
	run := func(worker, i int) {
		idx := idxs[i]
		inst := insts[idx]
		unpin := r.ds.pinInputs(inst)
		out[i] = IndexedResult{Index: idx, InstanceResult: executeInstance(r.ds, r.sys, inst, r.opt, idx, worker, tids[idx], r.shard)}
		unpin()
	}
	workers := r.opt.queryWorkers()
	if workers <= 1 || len(idxs) <= 1 {
		for i := range idxs {
			run(0, i)
		}
	} else {
		parallel.ForEachWorker(workers, len(idxs), func(w, i int) error {
			run(w, i)
			return nil
		})
	}
	if r.opt.Validate {
		for i := range out {
			res := &out[i].InstanceResult
			if res.Err != nil || res.Validation == nil {
				continue
			}
			sp := metrics.StartSpan(metrics.StageValidate)
			sp.Trace(tids[out[i].Index])
			sp.Shard(r.shard)
			r.val.validate(insts[out[i].Index], res.Validation)
			sp.Frames(res.Frames)
			sp.End()
		}
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

// CacheStats reports the runner's dataset decoded-cache activity — the
// per-worker counters a coordinator sums into the merged report.
func (r *BatchRunner) CacheStats() metrics.CacheStats {
	return r.ds.DecodedCacheStats()
}

// NormalizeOptions fills the driver's defaults — the values Run itself
// would use — so a shard coordinator partitions and merges against the
// exact configuration its workers execute.
func NormalizeOptions(o Options) Options { return o.withDefaults() }

// ResultNamePrefix returns the persisted-name prefix of one instance's
// result files (resultName with the per-output key stripped), letting a
// shard worker attribute store contents to the instance that wrote
// them.
func ResultNamePrefix(q queries.QueryID, idx int) string {
	return fmt.Sprintf("result-%s-%03d-", sanitize(string(q)), idx)
}

// SummarizeValidation aggregates instance validations into the batch
// summary — the computation runQueryBatch performs, exported so a
// coordinator can recompute the summary from gathered per-instance
// verdicts and arrive at the identical value.
func SummarizeValidation(insts []InstanceResult) ValidationSummary {
	var s ValidationSummary
	var psnrs []float64
	for _, r := range insts {
		if r.Validation == nil || !r.Validation.Checked {
			continue
		}
		s.Checked++
		if r.Validation.Passed {
			s.Passed++
		}
		if r.Validation.PSNR >= 0 {
			psnrs = append(psnrs, r.Validation.PSNR)
		}
		s.SemanticChecked += r.Validation.SemanticChecked
		s.SemanticPassed += r.Validation.SemanticPassed
	}
	s.PSNR = metrics.Describe(psnrs)
	return s
}
