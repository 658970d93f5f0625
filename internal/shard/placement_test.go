package shard_test

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/shard"
	"repro/internal/vcd"
	"repro/internal/vcg"
	"repro/internal/vcity"
	"repro/internal/vdbms"
	"repro/internal/vfs"
)

// probe is LightDB-like with a batch limit of 2 on limited, logging
// each instance it executes and each quiesce (Shutdown), and counting
// how many instances of the limited query execute at once.
type probe struct {
	vdbms.System
	limited       queries.QueryID
	running, peak *atomic.Int32

	mu  sync.Mutex
	log []string // executed queries, "quiesce" for a Shutdown
}

func (p *probe) MaxBatchSize(q queries.QueryID) int {
	if q == p.limited {
		return 2
	}
	return 0
}

func (p *probe) Execute(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	p.record(string(inst.Query))
	if inst.Query == p.limited {
		n := p.running.Add(1)
		defer p.running.Add(-1)
		for old := p.peak.Load(); n > old && !p.peak.CompareAndSwap(old, n); old = p.peak.Load() {
		}
		time.Sleep(20 * time.Millisecond) // long enough for a wider group to overlap
	}
	return p.System.Execute(inst, sink)
}

func (p *probe) Shutdown() {
	p.record("quiesce")
	if s, ok := p.System.(interface{ Shutdown() }); ok {
		s.Shutdown()
	}
}

func (p *probe) record(what string) {
	p.mu.Lock()
	p.log = append(p.log, what)
	p.mu.Unlock()
}

// probes builds the probe engines of one run and keeps them.
type probes struct {
	limited       queries.QueryID
	running, peak atomic.Int32

	mu   sync.Mutex
	made []*probe
}

func (ps *probes) make(spec shard.SystemSpec) (vdbms.System, error) {
	sys, err := shard.NewSystem(spec)
	if err != nil {
		return nil, err
	}
	p := &probe{System: sys, limited: ps.limited, running: &ps.running, peak: &ps.peak}
	ps.mu.Lock()
	ps.made = append(ps.made, p)
	ps.mu.Unlock()
	return p, nil
}

// placementDataset is a small generated store.
func placementDataset(t *testing.T) vfs.Store {
	t.Helper()
	store := vfs.NewMemory()
	if _, err := vcg.Generate(vcity.Hyperparams{
		Scale: 1, Width: 96, Height: 64, Duration: 0.5, FPS: 16, Seed: 9,
	}, vcg.Options{QP: 22}, store); err != nil {
		t.Fatal(err)
	}
	return store
}

// placementOptions runs 8 instances of Q1, which the probe limits to
// groups of 2, and of Q5, on a pool wide enough to run a worker's whole
// share of a batch at once.
var placementOptions = vcd.Options{
	Queries: []queries.QueryID{queries.Q1, queries.Q5}, InstancesPerScale: 8,
	Seed: 3, Workers: 4, Mode: vcd.StreamingMode,
}

func runProbedShards(t *testing.T, store vfs.Store) (*probes, *vcd.RunReport) {
	t.Helper()
	ps := &probes{limited: queries.Q1}
	defer shard.SetNewSystem(ps.make)()
	report, counters, err := shard.Run(context.Background(), shard.Plan{
		Store: store, System: shard.SystemSpec{Name: "lightdblike"}, Scale: 1, Opt: placementOptions,
	}, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if counters.WorkerFailures != 0 {
		t.Fatalf("run degraded: %+v", *counters)
	}
	return ps, report
}

// TestShardedRunHonorsTheBatchLimit: the batch loop splits a sharded
// batch by the engine's limit as it splits a local one, so no more
// than 2 instances of the limited batch execute at once across both
// workers, and the report counts the splits.
func TestShardedRunHonorsTheBatchLimit(t *testing.T) {
	ps, report := runProbedShards(t, placementDataset(t))
	if peak := ps.peak.Load(); peak > 2 {
		t.Errorf("%d instances of a batch limited to 2 executed at once", peak)
	}
	qr, _ := report.QueryReport(queries.Q1)
	if qr.Completed != 8 || qr.BatchSplits != 3 {
		t.Errorf("Q1: %d completed, %d batch splits; want 8 and 3", qr.Completed, qr.BatchSplits)
	}
}

// TestWorkersQuiesceOncePerBatch: a shard worker quiesces its engine
// once per batch it runs part of — after it, at the next batch's first
// assignment or when the run finishes, never before its first batch or
// between two assignments of one batch — as vcd.Run quiesces after
// each batch (and once more at Close).
func TestWorkersQuiesceOncePerBatch(t *testing.T) {
	store := placementDataset(t)
	sharded, _ := runProbedShards(t, store)

	local := &probes{limited: queries.Q1}
	sys, err := local.make(shard.SystemSpec{Name: "lightdblike"})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := vcd.LoadDataset(store, detect.ProfileSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vcd.Run(ds, sys, placementOptions); err != nil {
		t.Fatal(err)
	}

	// check wants exactly one quiesce after each batch before the next
	// begins, and atEnd after the last.
	check := func(where string, p *probe, atEnd int) {
		var batches []string
		quiesces := 0
		for i, e := range p.log {
			if e == "quiesce" {
				quiesces++
				continue
			}
			if i > 0 && p.log[i-1] == "quiesce" && slices.Contains(batches, e) {
				t.Errorf("%s quiesced inside the %s batch: %v", where, e, p.log)
			}
			if !slices.Contains(batches, e) {
				if quiesces != len(batches) {
					t.Errorf("%s quiesced %d times before batch %d: %v", where, quiesces, len(batches)+1, p.log)
				}
				batches = append(batches, e)
			}
		}
		if quiesces != len(batches)-1+atEnd {
			t.Errorf("%s quiesced %d times over %d batches, want one between batches and %d at the end: %v", where, quiesces, len(batches), atEnd, p.log)
		}
	}
	check("vcd.Run", local.made[0], 2) // the loop's after the last batch, and Close's
	workers := 0
	for _, p := range sharded.made {
		if len(p.log) > 0 { // the coordinator's engine executes nothing
			workers++
			check("a shard worker", p, 1) // Close's
		}
	}
	if workers != 2 {
		t.Errorf("%d workers ran the batches, want 2", workers)
	}
}

// slowStore delays each Write, so persisting a batch takes a known
// minimum time.
type slowStore struct{ vfs.Store }

func (s slowStore) Write(name string, data []byte) error {
	time.Sleep(time.Millisecond)
	return s.Store.Write(name, data)
}

// TestMergeSpanTimesThePersistence: each sharded batch records one
// shard.merge span, and it covers the loop's persisting of the
// workers' result payloads.
func TestMergeSpanTimesThePersistence(t *testing.T) {
	metrics.SetEnabled(true)
	t.Cleanup(func() { metrics.SetEnabled(false) })
	results := slowStore{vfs.NewMemory()}
	opt := placementOptions
	opt.Mode, opt.ResultStore = vcd.WriteMode, results
	since := metrics.TraceSeq()
	if _, _, err := shard.Run(context.Background(), shard.Plan{
		Store: placementDataset(t), System: shard.SystemSpec{Name: "lightdblike"}, Scale: 1, Opt: opt,
	}, shard.Options{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	spans, _ := metrics.TraceSpansSince(since)
	merges, merged := 0, time.Duration(0)
	for _, sp := range spans {
		if sp.Stage == metrics.StageShardMerge.String() {
			merges++
			merged += time.Duration(sp.DurNS)
		}
	}
	names, err := results.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 || merges != len(opt.Queries) || merged < time.Duration(len(names))*time.Millisecond {
		t.Errorf("%d shard.merge spans over %v for %d batches persisting %d files at 1 ms each",
			merges, merged, len(opt.Queries), len(names))
	}
}
