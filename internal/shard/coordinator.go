package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/stream"
	"repro/internal/vcd"
	"repro/internal/vfs"
)

// DefaultHeartbeat is the default liveness window: the coordinator's
// worker-silence bound and the worker server's first-frame bound.
const DefaultHeartbeat = 10 * time.Second

// Options configure the coordinator.
type Options struct {
	// Shards is the worker count (≥ 1). Partitioning is a function of
	// this number, so the same (seed, config, shards) always produces
	// the same assignment.
	Shards int
	// Transport connects workers; nil spawns in-process pipe workers
	// (sharing Store when set on Worker).
	Transport Transport
	// Worker configures in-process pipe workers (ignored when Transport
	// is set).
	Worker WorkerOptions
	// Heartbeat is the liveness window: a worker silent for this long is
	// presumed dead and its unfinished shard is retried on a survivor;
	// it also bounds coordinator writes. 0 selects DefaultHeartbeat.
	// Size it above one result payload's transfer time (DESIGN.md §5.10).
	Heartbeat time.Duration
	// Faults kills in-process worker connections deterministically
	// (worker i uses the plan scoped to "worker-i"); the robustness
	// tests' seeded failure source.
	Faults *stream.FaultPlan
	// FaultWorkers limits Faults to specific worker indices (nil = all).
	FaultWorkers []int
}

// Sharded reports whether the options ask for the shard plane at all:
// more than one worker, or a transport to remote ones. The CLIs and the
// experiments run single-process otherwise.
func (o Options) Sharded() bool { return o.Shards > 1 || o.Transport != nil }

// Run-size limits: the largest election a command line or a vrserved
// submit body may ask for. A batch is instances × L instances and every
// in-process shard worker loads the dataset, so an unbounded number
// from outside is a memory bomb, not a bigger benchmark (the paper runs
// 4 instances per unit of scale).
const (
	MaxInstancesPerScale = 1024
	MaxInstanceWorkers   = 1024
	MaxShards            = 64
)

// CheckLimits is the one range check on a run election that arrives
// from outside the program — vrserved answers a violation 400, the CLI
// binder reports a usage error. Only the top is bounded: zero and below
// already mean "the default" everywhere these values are read.
func CheckLimits(instances, instanceWorkers, shards int) error {
	for _, b := range []struct {
		what     string
		got, max int
	}{
		{"instances per unit of scale", instances, MaxInstancesPerScale},
		{"query workers", instanceWorkers, MaxInstanceWorkers},
		{"shard workers", shards, MaxShards},
	} {
		if b.got > b.max {
			return fmt.Errorf("shard: %d %s exceeds the limit of %d", b.got, b.what, b.max)
		}
	}
	return nil
}

// Counters is the run's degradation accounting, PR 5's online-counter
// idiom applied to the execution plane: zero everywhere means the
// merged report required no retries and is byte-identical to the
// single-process run.
type Counters struct {
	Workers           int   `json:"workers"`
	WorkerFailures    int64 `json:"worker_failures"`
	HeartbeatTimeouts int64 `json:"heartbeat_timeouts"`
	Reassignments     int64 `json:"reassignments"`
	RetriedInstances  int64 `json:"retried_instances"`
	DuplicateResults  int64 `json:"duplicate_results"`
	DialRetries       int64 `json:"dial_retries"`
}

// Plan is one sharded run: where workers find the dataset, which engine
// they instantiate, and the driver options the merged report must match.
type Plan struct {
	// Dataset tells workers how to obtain the dataset (shared path or
	// deterministic regeneration). Ignored by in-process workers when
	// Store is set.
	Dataset DatasetSpec
	// Store is the coordinator-side dataset store, shared directly with
	// in-process workers (the pipe transport's shared filesystem).
	Store vfs.Store
	// System names the engine and its budgets.
	System SystemSpec
	// Scale is the dataset's scale factor L (batch size = 4·L by
	// default, as in the single-process driver).
	Scale int
	// Opt is the run configuration. It travels to workers whole, minus
	// ResultStore: workers ship payloads back for the loop to persist.
	Opt vcd.Options
}

// Run executes the plan across copt.Shards workers: it is vcd's batch
// loop (vcd.RunPlaced) with the remote workers as its placement, so a
// zero-fault sharded run reports byte-identically to vcd.Run on the
// same seed/config. The returned Counters surface worker failures and
// retries; faults change them, not the results. Counters are non-nil
// even when Run fails (alongside the error) so callers can see the
// degradation that preceded the failure; only a plan with no scale or
// an unknown system returns nil.
func Run(ctx context.Context, plan Plan, copt Options) (*vcd.RunReport, *Counters, error) {
	if copt.Shards < 1 {
		copt.Shards = 1
	}
	if copt.Heartbeat <= 0 {
		copt.Heartbeat = DefaultHeartbeat
	}
	if plan.Scale < 1 {
		return nil, nil, fmt.Errorf("shard: plan needs the dataset scale")
	}
	// A local engine instance answers Supports and the batch limit; it
	// never executes anything.
	sys, err := newSystem(plan.System)
	if err != nil {
		return nil, nil, err
	}
	opt := plan.Opt.WithDefaults()

	transport := copt.Transport
	if transport == nil {
		pt := &PipeTransport{Worker: copt.Worker, Faults: copt.Faults, FaultWorkers: copt.FaultWorkers}
		if pt.Worker.Store == nil {
			pt.Worker.Store = plan.Store
		}
		transport = pt
		defer pt.Close()
	}

	c := &coordinator{
		plan:      plan,
		opt:       opt,
		copt:      copt,
		transport: transport,
		// The channel holds every frame workers can have in flight while
		// the coordinator is blocked writing an assignment (a full batch
		// of results, retried duplicates, and per-worker done frames), so
		// reader goroutines never stall a worker's send mid-scatter.
		events: make(chan event, 4*opt.InstancesPerScale*plan.Scale+4*copt.Shards+8),
	}
	defer c.closeAll()
	report, err := vcd.RunPlaced(ctx, sys, plan.Scale, opt, c)
	if at, ok := transport.(*AddrTransport); ok {
		c.counters.Add(metrics.ShardDialRetries, at.DialRetries())
	}
	return report, c.tally(), err
}

// tally reads the run's Counters out of its counter set — the one place
// the struct is tied to the shard rows of the metrics table
// (TestCountersMatchShardRows).
func (c *coordinator) tally() *Counters {
	return &Counters{
		Workers:           len(c.workers),
		WorkerFailures:    c.counters.Value(metrics.ShardWorkerFailures),
		HeartbeatTimeouts: c.counters.Value(metrics.ShardHeartbeatTimeouts),
		Reassignments:     c.counters.Value(metrics.ShardReassignments),
		RetriedInstances:  c.counters.Value(metrics.ShardRetriedInstances),
		DuplicateResults:  c.counters.Value(metrics.ShardDuplicateResults),
		DialRetries:       c.counters.Value(metrics.ShardDialRetries),
	}
}

// event is one worker-to-coordinator occurrence, funneled from the
// per-worker reader goroutines into the gather loop.
type event struct {
	wid  int
	kind byte
	body []byte
	err  error // connection-level failure (truncation, timeout)
}

// remoteWorker is the coordinator's view of one worker.
type remoteWorker struct {
	id    int
	conn  net.Conn
	alive bool
	// outstanding tracks the indices assigned but not yet resolved for
	// the in-flight query.
	outstanding map[int]bool
}

// coordinator is the batch loop's remote placement: it scatters each
// group of a batch to the workers, gathers the results by global index,
// reassigns a dead worker's instances and drops duplicates.
type coordinator struct {
	plan      Plan
	opt       vcd.Options
	copt      Options
	transport Transport
	workers   []*remoteWorker
	events    chan event
	// counters is this run's share of the shard rows; every Add also
	// lands in the process registry, so /debug/metrics and Telemetry see
	// coordinator behavior live.
	counters metrics.Set
	seq      int
	// The batch in flight (Begin): its query and size, which indices
	// have arrived, and the result payloads gathered for the loop.
	query   queries.QueryID
	n       int
	arrived []bool
	files   map[string][]byte
}

var _ vcd.Placement = (*coordinator)(nil)

func (c *coordinator) closeAll() {
	for _, w := range c.workers {
		if w.conn != nil {
			w.conn.Close()
		}
	}
}

// InProcess implements vcd.Placement: the workers run elsewhere, and
// the job manifest cannot carry an online staging.
func (c *coordinator) InProcess() bool { return false }

// Start dials every worker and sends the job manifest.
func (c *coordinator) Start(ctx context.Context) error {
	job := JobSpec{
		Dataset:     c.plan.Dataset,
		System:      c.plan.System,
		Opt:         c.opt,
		Metrics:     metrics.Enabled(),
		HeartbeatNS: c.copt.Heartbeat.Nanoseconds(),
	}
	metrics.RecordEvent(metrics.Event{
		Kind: metrics.EventJobSubmitted, Shard: -1,
		Count: c.copt.Shards, Detail: c.plan.System.Name,
	})
	var runTrace metrics.TraceID
	if metrics.Enabled() {
		runTrace = metrics.RunTraceID(c.opt.Seed)
	}
	for i := 0; i < c.copt.Shards; i++ {
		sp := metrics.StartSpan(metrics.StageShardDial)
		sp.Trace(runTrace)
		sp.Shard(i)
		conn, err := c.transport.Connect(ctx, i)
		if err != nil {
			return err
		}
		w := &remoteWorker{id: i, conn: conn, alive: true, outstanding: map[int]bool{}}
		c.workers = append(c.workers, w)
		job.Shard = i
		if err := c.write(w, msgJob, job); err != nil {
			return fmt.Errorf("shard: sending job to worker %d: %w", i, err)
		}
		sp.End()
		go c.read(w)
	}
	return nil
}

// read pumps one worker's frames into the event channel, enforcing the
// heartbeat deadline on every read. It exits on the first error; the
// gather loop handles the death.
func (c *coordinator) read(w *remoteWorker) {
	for {
		w.conn.SetReadDeadline(time.Now().Add(c.copt.Heartbeat))
		kind, body, err := readMsg(w.conn)
		if err != nil {
			c.events <- event{wid: w.id, err: err}
			return
		}
		if kind == msgHeartbeat {
			continue
		}
		c.events <- event{wid: w.id, kind: kind, body: body}
		if kind == msgSummary {
			return
		}
	}
}

func (c *coordinator) alive() []*remoteWorker {
	var out []*remoteWorker
	for _, w := range c.workers {
		if w.alive {
			out = append(out, w)
		}
	}
	return out
}

// markDead records a worker failure and returns the indices it leaves
// behind.
func (c *coordinator) markDead(w *remoteWorker, err error) []int {
	if !w.alive {
		return nil
	}
	w.alive = false
	w.conn.Close()
	c.counters.Add(metrics.ShardWorkerFailures, 1)
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		c.counters.Add(metrics.ShardHeartbeatTimeouts, 1)
		metrics.RecordEvent(metrics.Event{Kind: metrics.EventHeartbeatMissed, Shard: w.id})
	}
	metrics.RecordEvent(metrics.Event{
		Kind: metrics.EventWorkerDead, Shard: w.id,
		Count: len(w.outstanding), Detail: err.Error(),
	})
	var orphaned []int
	for idx := range w.outstanding {
		orphaned = append(orphaned, idx)
	}
	sort.Ints(orphaned)
	w.outstanding = map[int]bool{}
	return orphaned
}

// write sends one frame to a worker under the heartbeat window as a
// write deadline, so a worker that stalls with its socket open (hung
// process, full receive buffer) surfaces as a write error on the
// markDead/reassign path instead of blocking the gather loop forever.
func (c *coordinator) write(w *remoteWorker, kind byte, v any) error {
	w.conn.SetWriteDeadline(time.Now().Add(c.copt.Heartbeat))
	err := writeMsg(w.conn, kind, v)
	w.conn.SetWriteDeadline(time.Time{})
	return err
}

// assign sends one worker its index subset for the query, carrying the
// coordinator-minted trace IDs and journaling the assignment.
func (c *coordinator) assign(w *remoteWorker, q queries.QueryID, indices []int) error {
	c.seq++
	for _, idx := range indices {
		w.outstanding[idx] = true
	}
	a := Assignment{Query: q, Indices: indices, Seq: c.seq}
	if metrics.Enabled() {
		a.Traces = make([]metrics.TraceID, len(indices))
		for i, idx := range indices {
			a.Traces[i] = metrics.InstanceTraceID(c.opt.Seed, string(q), idx)
		}
	}
	sp := metrics.StartSpan(metrics.StageShardAssign)
	sp.Trace(metrics.BatchTraceID(c.opt.Seed, string(q)))
	sp.Shard(w.id)
	err := c.write(w, msgAssign, a)
	sp.End()
	if err == nil {
		metrics.RecordEvent(metrics.Event{
			Kind: metrics.EventShardAssigned, Shard: w.id,
			Query: string(q), Count: len(indices),
		})
	}
	return err
}

// Begin implements vcd.Placement: workers build the batch themselves.
func (c *coordinator) Begin(q queries.QueryID, n int) error {
	c.query, c.n = q, n
	c.arrived = make([]bool, n)
	c.files = map[string][]byte{}
	return nil
}

// Execute scatters the instances at idxs to the workers and gathers
// their results into out, slotted by global index.
func (c *coordinator) Execute(ctx context.Context, idxs []int, out []vcd.InstanceResult) error {
	q := c.query
	start := time.Now()
	slot := make(map[int]int, len(idxs))
	for i, idx := range idxs {
		slot[idx] = i
	}

	// Scatter: shard s of the stable partition goes to the s-th alive
	// worker (shards collapse onto survivors when workers have died in
	// earlier batches).
	psp := metrics.StartSpan(metrics.StageShardPartition)
	psp.Trace(metrics.BatchTraceID(c.opt.Seed, string(q)))
	parts := Partition(q, c.n, c.copt.Shards)
	psp.End()
	alive := c.alive()
	if len(alive) == 0 {
		return errors.New("shard: no workers left")
	}
	perWorker := map[int][]int{}
	for s, part := range parts {
		w := alive[s%len(alive)]
		for _, idx := range part {
			if _, ok := slot[idx]; ok {
				perWorker[w.id] = append(perWorker[w.id], idx)
			}
		}
	}
	for _, w := range alive {
		idxs := perWorker[w.id]
		if len(idxs) == 0 {
			continue
		}
		sort.Ints(idxs)
		if err := c.assign(w, q, idxs); err != nil {
			// The write failed — a death; assign already marked the
			// indices outstanding, so the worker's orphans carry them.
			if rerr := c.reassign(q, c.markDead(w, err)); rerr != nil {
				return rerr
			}
		}
	}

	// Gather: per-instance results land at their global index, in the
	// driver's own type; worker deaths reassign whatever the dead worker
	// still owed.
	for remaining := len(idxs); remaining > 0; {
		var ev event
		select {
		case ev = <-c.events:
		case <-ctx.Done():
			return ctx.Err()
		}
		w := c.workers[ev.wid]
		if ev.err != nil {
			if err := c.reassign(q, c.markDead(w, ev.err)); err != nil {
				return err
			}
			continue
		}
		switch ev.kind {
		case msgResult:
			var res InstanceResultWire
			if err := decode(ev.kind, ev.body, &res); err != nil {
				return err
			}
			if res.Query != string(q) || res.Index < 0 || res.Index >= c.n {
				continue // stale frame from a pre-reassignment epoch
			}
			delete(w.outstanding, res.Index)
			i, ok := slot[res.Index]
			if c.arrived[res.Index] {
				// A reassigned instance finished twice; execution is
				// deterministic, so both copies are identical. Keep the
				// first, count the duplicate.
				c.counters.Add(metrics.ShardDuplicateResults, 1)
				metrics.RecordEvent(metrics.Event{
					Kind: metrics.EventDuplicateDropped, Shard: ev.wid,
					Query: string(q), Trace: res.Trace,
				})
				continue
			}
			if !ok {
				continue // not of this group, and never assigned
			}
			c.arrived[res.Index], out[i] = true, res.InstanceResult
			for _, f := range res.Files {
				c.files[f.Name] = f.Data
			}
			remaining--
			if metrics.Enabled() {
				// The gather span spans scatter to arrival, so an instance's
				// timeline wall is its end-to-end latency as the coordinator
				// saw it — the quantity straggler attribution ranks.
				metrics.RecordSpanAt(metrics.StageShardGather, res.Trace, ev.wid, start, time.Since(start))
			}
		case msgDone:
			// Assignment bookkeeping only; results already arrived (a done
			// frame may also belong to the previous query's tail).
		case msgError:
			var werr WorkerError
			if err := decode(ev.kind, ev.body, &werr); err != nil {
				return err
			}
			return fmt.Errorf("worker %d: %s", ev.wid, werr.Msg)
		}
	}
	return nil
}

// Settle hands the loop the batch's gathered result payloads to merge:
// workers validated their instances as they ran them.
func (c *coordinator) Settle([]int, []vcd.InstanceResult) (map[string][]byte, error) {
	return c.files, nil
}

// Quiesce is the workers' own: each quiesces after a batch, at the next
// query's first assignment or at finish, never inside a batch.
func (c *coordinator) Quiesce() {}

// reassign re-dispatches orphaned indices to the next alive worker.
func (c *coordinator) reassign(q queries.QueryID, orphaned []int) error {
	for len(orphaned) > 0 {
		alive := c.alive()
		if len(alive) == 0 {
			return errors.New("shard: no workers left to retry on")
		}
		// Spread orphans across survivors by their stable shard hash.
		perWorker := map[int][]int{}
		for _, idx := range orphaned {
			w := alive[shardOf(q, idx, len(alive))]
			perWorker[w.id] = append(perWorker[w.id], idx)
		}
		orphaned = nil
		for _, w := range alive {
			idxs := perWorker[w.id]
			if len(idxs) == 0 {
				continue
			}
			delete(perWorker, w.id)
			if err := c.assign(w, q, idxs); err != nil {
				// Died mid-retry: its outstanding indices (including this
				// round's) and everything not yet dispatched go around
				// again against the remaining survivors.
				orphaned = append(orphaned, c.markDead(w, err)...)
				for _, rest := range perWorker {
					orphaned = append(orphaned, rest...)
				}
				break
			}
			c.counters.Add(metrics.ShardReassignments, 1)
			c.counters.Add(metrics.ShardRetriedInstances, int64(len(idxs)))
			metrics.RecordEvent(metrics.Event{
				Kind: metrics.EventInstanceReassigned, Shard: w.id,
				Query: string(q), Count: len(idxs),
			})
		}
		sort.Ints(orphaned)
	}
	return nil
}

// Finish tells every surviving worker the run is over and collects
// their summaries, in the order they arrive (an untagged remote span
// gets its worker's shard). A worker dying now loses only its telemetry
// contribution, never results.
func (c *coordinator) Finish(ctx context.Context) ([]vcd.Measured, error) {
	var out []vcd.Measured
	waiting := map[int]bool{}
	for _, w := range c.alive() {
		if err := c.write(w, msgFinish, struct{}{}); err != nil {
			c.markDead(w, err)
			continue
		}
		waiting[w.id] = true
	}
	for len(waiting) > 0 {
		var ev event
		select {
		case ev = <-c.events:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if !waiting[ev.wid] {
			continue
		}
		w := c.workers[ev.wid]
		if ev.err != nil {
			c.markDead(w, ev.err)
			delete(waiting, ev.wid)
			continue
		}
		if ev.kind != msgSummary {
			continue // late result/done frames from the final batch
		}
		var sum vcd.Measured
		if err := decode(ev.kind, ev.body, &sum); err != nil {
			return nil, err
		}
		delete(waiting, ev.wid)
		for i := range sum.Spans {
			if sum.Spans[i].Shard < 0 {
				sum.Spans[i].Shard = int32(w.id)
			}
		}
		out = append(out, sum)
	}
	return out, nil
}
