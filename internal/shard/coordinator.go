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
	"repro/internal/vdbms"
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
	// presumed dead and its unfinished shard is retried on a survivor.
	// 0 selects DefaultHeartbeat. Frames are written whole under the worker's frame
	// mutex, so a heartbeat can be delayed by one in-flight result
	// frame: size Heartbeat above the time a single result payload
	// (largest WriteMode instance's files) takes to cross the link, or
	// a healthy worker mid-transfer is declared dead and its work
	// re-executed. The same window bounds coordinator-side writes — a
	// worker that stalls without closing its socket surfaces as a write
	// timeout instead of wedging the gather loop.
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
	// ResultStore: persistence acts at the coordinator (workers ship
	// payloads back in WriteMode), and Queries drive the coordinator's
	// scatter — workers execute what they are assigned.
	Opt vcd.Options
}

// Run executes the plan across copt.Shards workers and merges a
// RunReport deterministically: results gather at their global batch
// index, tallies and validation summaries come from the driver's own
// QueryReport.Tally, and persisted results are written in name order —
// so a zero-fault sharded run reports byte-identically to vcd.Run on
// the same seed/config. The returned
// Counters surface worker failures and retries; faults change them, not
// the results. Counters are non-nil even when Run fails (alongside the
// error) so callers can see the degradation that preceded the failure;
// only plan-validation errors before any worker contact return nil.
func Run(ctx context.Context, plan Plan, copt Options) (*vcd.RunReport, *Counters, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if copt.Shards < 1 {
		copt.Shards = 1
	}
	if copt.Heartbeat <= 0 {
		copt.Heartbeat = DefaultHeartbeat
	}
	opt := plan.Opt.WithDefaults()
	if opt.Mode == vcd.WriteMode && opt.ResultStore == nil {
		return nil, nil, errors.New("shard: WriteMode requires a result store")
	}
	if opt.Online != nil {
		// Online options never cross the wire: the workers would run
		// the batch offline without saying so.
		return nil, nil, errors.New("shard: an online run stages its inputs in process; the shard plane cannot run it")
	}
	if plan.Scale < 1 {
		return nil, nil, fmt.Errorf("shard: plan needs the dataset scale")
	}
	// A local engine instance answers Supports and the batch limit; it
	// never executes anything.
	sys, err := NewSystem(plan.System)
	if err != nil {
		return nil, nil, err
	}

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
		plan: plan,
		opt:  opt,
		copt: copt,
		sys:  sys,
		// The channel holds every frame workers can have in flight while
		// the coordinator is blocked writing an assignment (a full batch
		// of results, retried duplicates, and per-worker done frames), so
		// reader goroutines never stall a worker's send mid-scatter.
		events: make(chan event, 4*opt.InstancesPerScale*plan.Scale+4*copt.Shards+8),
	}
	defer c.closeAll()
	// Bracket the observability interval before connect: the job
	// submission event and the dial spans belong to this run.
	c.iv = metrics.Begin()
	if err := c.connect(ctx, transport); err != nil {
		return nil, c.tally(), err
	}
	report, err := c.run(ctx)
	if at, ok := transport.(*AddrTransport); ok {
		c.counters.Add(metrics.ShardDialRetries, at.DialRetries())
	}
	if err != nil {
		return nil, c.tally(), err
	}
	return report, c.tally(), nil
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
	// summary arrives on finish.
	summary *WorkerSummary
}

type coordinator struct {
	plan    Plan
	opt     vcd.Options
	copt    Options
	sys     vdbms.System
	workers []*remoteWorker
	events  chan event
	// counters is this run's share of the shard rows; every Add also
	// lands in the process registry, so /debug/metrics and Telemetry see
	// coordinator behavior live.
	counters metrics.Set
	seq      int
	// iv brackets the run in the process registry and rings.
	iv metrics.Interval
}

// instTrace mints one instance's deterministic trace ID — identical to
// what workers and a single-process run of the same plan derive.
func (c *coordinator) instTrace(q queries.QueryID, idx int) metrics.TraceID {
	return metrics.InstanceTraceID(c.opt.Seed, string(q), idx)
}

func (c *coordinator) closeAll() {
	for _, w := range c.workers {
		if w.conn != nil {
			w.conn.Close()
		}
	}
}

// connect dials every worker and sends the job manifest.
func (c *coordinator) connect(ctx context.Context, transport Transport) error {
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
		conn, err := transport.Connect(ctx, i)
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
// write deadline. Without it a worker that stalls while its socket
// stays open (hung process, full receive buffer) would block the
// gather loop in a write forever — unable to drain events or observe
// cancellation — defeating the liveness the heartbeat provides on the
// read side. With it, a stuck worker surfaces as a write error and
// flows into markDead/reassign like any read-side failure.
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
			a.Traces[i] = c.instTrace(q, idx)
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

// run drives the full benchmark: scatter each query batch, gather, then
// collect worker summaries and merge the report.
func (c *coordinator) run(ctx context.Context) (*vcd.RunReport, error) {
	report := &vcd.RunReport{System: c.sys.Name(), Scale: c.plan.Scale, Mode: c.opt.Mode}
	start := time.Now()
	for _, q := range c.opt.Queries {
		qr, err := c.runQuery(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("shard: %s on %s: %w", q, c.sys.Name(), err)
		}
		report.Queries = append(report.Queries, *qr)
	}
	report.Elapsed = time.Since(start)

	if err := c.finish(ctx); err != nil {
		return nil, err
	}
	// The coordinator's own interval already contains every span
	// recorded by in-process pipe workers; remote workers contribute
	// their deltas and shipped spans through their summaries (a remote
	// span that predates the per-worker shard tag gets it from the worker
	// identity here).
	d, spans, lost := c.iv.Read()
	for _, w := range c.workers {
		if w.summary == nil {
			continue
		}
		report.DecodedCache.Merge(w.summary.Cache)
		if d != nil && w.summary.Telemetry != nil {
			d.Merge(*w.summary.Telemetry)
		}
		lost += w.summary.SpansLost
		for _, sp := range w.summary.Spans {
			if sp.Shard < 0 {
				sp.Shard = int32(w.id)
			}
			spans = append(spans, sp)
		}
	}
	report.Record = c.iv.Close(d, c.ownSpans(spans), lost)
	return report, nil
}

// ownSpans keeps the spans whose trace IDs this run's plan minted — its
// instances', its batches' and the run's. The interval is cut from
// process-wide rings, which in a daemon the coordinators and in-process
// workers of other jobs running at the time write to as well.
func (c *coordinator) ownSpans(spans []metrics.TraceSpan) []metrics.TraceSpan {
	own := map[metrics.TraceID]bool{metrics.RunTraceID(c.opt.Seed): true}
	for _, q := range c.opt.Queries {
		own[metrics.BatchTraceID(c.opt.Seed, string(q))] = true
		for idx := 0; idx < c.opt.InstancesPerScale*c.plan.Scale; idx++ {
			own[c.instTrace(q, idx)] = true
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

// runQuery scatters one query batch and gathers its results into a
// QueryReport identical to the single-process driver's.
func (c *coordinator) runQuery(ctx context.Context, q queries.QueryID) (*vcd.QueryReport, error) {
	qr := &vcd.QueryReport{Query: q, System: c.sys.Name()}
	if !c.sys.Supports(q) {
		qr.Unsupported = true
		return qr, nil
	}
	n := c.opt.InstancesPerScale * c.plan.Scale
	qr.BatchSize = n

	iv := metrics.Begin()
	var batchTrace metrics.TraceID
	if metrics.Enabled() {
		batchTrace = metrics.BatchTraceID(c.opt.Seed, string(q))
	}
	batchStart := time.Now()

	// Scatter: shard s of the stable partition goes to the s-th alive
	// worker (shards collapse onto survivors when workers have died in
	// earlier batches).
	psp := metrics.StartSpan(metrics.StageShardPartition)
	psp.Trace(batchTrace)
	parts := Partition(q, n, c.copt.Shards)
	psp.End()
	alive := c.alive()
	if len(alive) == 0 {
		return nil, errors.New("shard: no workers left")
	}
	perWorker := map[int][]int{}
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		w := alive[s%len(alive)]
		perWorker[w.id] = append(perWorker[w.id], part...)
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
				return nil, rerr
			}
		}
	}

	// Gather: per-instance results land at their global index, in the
	// driver's own type (the batch limit's sub-batches are counted
	// arithmetically by Tally: grouping orders execution, it does not
	// change per-instance results); worker deaths reassign whatever the
	// dead worker still owed.
	qr.Instances = make([]vcd.InstanceResult, n)
	arrived := make([]bool, n)
	files := map[string][]byte{}
	remaining := n
	for remaining > 0 {
		var ev event
		select {
		case ev = <-c.events:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		w := c.workers[ev.wid]
		if ev.err != nil {
			if err := c.reassign(q, c.markDead(w, ev.err)); err != nil {
				return nil, err
			}
			continue
		}
		switch ev.kind {
		case msgResult:
			var res InstanceResultWire
			if err := decode(ev.kind, ev.body, &res); err != nil {
				return nil, err
			}
			if res.Query != string(q) || res.Index < 0 || res.Index >= n {
				continue // stale frame from a pre-reassignment epoch
			}
			delete(w.outstanding, res.Index)
			if arrived[res.Index] {
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
			arrived[res.Index], qr.Instances[res.Index] = true, res.InstanceResult
			for _, f := range res.Files {
				files[f.Name] = f.Data
			}
			remaining--
			if metrics.Enabled() {
				// The gather span spans scatter to arrival, so an instance's
				// timeline wall is its end-to-end latency as the coordinator
				// saw it — the quantity straggler attribution ranks.
				tid := res.Trace
				if tid == 0 {
					tid = c.instTrace(q, res.Index)
				}
				metrics.RecordSpanAt(metrics.StageShardGather, tid, ev.wid, batchStart, time.Since(batchStart))
			}
		case msgDone:
			// Assignment bookkeeping only; results already arrived (a done
			// frame may also belong to the previous query's tail).
		case msgError:
			var werr WorkerError
			if err := decode(ev.kind, ev.body, &werr); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("worker %d: %s", ev.wid, werr.Msg)
		}
	}
	qr.Elapsed = time.Since(batchStart)

	// Merge: tally with the driver's own tally, then persist.
	msp := metrics.StartSpan(metrics.StageShardMerge)
	msp.Trace(batchTrace)
	qr.Tally(c.sys)
	// Persisted results write in name order — a deterministic gather
	// regardless of which worker finished first.
	if c.opt.Mode == vcd.WriteMode {
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := c.opt.ResultStore.Write(name, files[name]); err != nil {
				msp.End()
				return nil, err
			}
		}
	}
	msp.End()
	metrics.RecordEvent(metrics.Event{
		Kind: metrics.EventMergeComplete, Query: string(q),
		Trace: batchTrace, Count: n, Shard: -1,
	})
	qr.Telemetry = iv.Telemetry()
	return qr, nil
}

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

// finish tells every surviving worker the run is over and collects
// their summaries (remoteWorker.summary). A worker dying at this stage
// loses only its telemetry contribution, never results.
func (c *coordinator) finish(ctx context.Context) error {
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
			return ctx.Err()
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
		var sum WorkerSummary
		if err := decode(ev.kind, ev.body, &sum); err != nil {
			return err
		}
		w.summary = &sum
		delete(waiting, ev.wid)
	}
	return nil
}
