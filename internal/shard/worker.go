package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/stream"
	"repro/internal/vcd"
	"repro/internal/vdbms"
	"repro/internal/vdbms/lightdblike"
	"repro/internal/vdbms/noscopelike"
	"repro/internal/vdbms/scannerlike"
	"repro/internal/vfs"
)

// NewSystem instantiates the named engine with the job's budgets. It is
// the only name→engine switch: the CLIs, the daemon, the experiments
// and the workers all resolve a system through it.
func NewSystem(spec SystemSpec) (vdbms.System, error) {
	switch spec.Name {
	case "scannerlike":
		return scannerlike.New(scannerlike.Options{
			MemoryBudgetBytes: spec.ScannerBudget,
			HardLimitBytes:    spec.ScannerHardLimit,
		}), nil
	case "lightdblike":
		return lightdblike.New(lightdblike.Options{}), nil
	case "noscopelike":
		return noscopelike.NewDefault(), nil
	}
	return nil, fmt.Errorf("shard: unknown system %q", spec.Name)
}

// newSystem is how a run's coordinator and workers build their engine:
// NewSystem, unless a test runs an engine of its own (export_test.go).
var newSystem = NewSystem

// WorkerOptions configure one worker's environment.
type WorkerOptions struct {
	// Store overrides the job's DatasetSpec with an already-open store —
	// the in-process transport's stand-in for a shared filesystem. The
	// worker still loads its own Dataset (demux staging, decoded cache)
	// from it.
	Store vfs.Store
	// InProcess marks a worker sharing the coordinator's process: its
	// spans already land in the coordinator's metrics registry, so the
	// summary omits the telemetry delta to avoid double counting.
	InProcess bool
	// Clock paces heartbeats (nil = wall clock).
	Clock stream.Clock
	// FirstFrameTimeout bounds the wait for the first frame of the
	// conversation (the job manifest): a coordinator that connects and
	// never sends a job is dropped as a read timeout instead of holding
	// the worker forever. Zero means no bound (in-process pipe workers,
	// whose coordinator writes the job before Connect returns).
	FirstFrameTimeout time.Duration
}

// ServeConn runs one worker conversation: job manifest, then
// assignments until the coordinator finishes the run. It returns when
// the coordinator sends finish (nil), the connection drops, or a fatal
// setup error occurs (reported to the coordinator as a protocol error
// frame first).
func ServeConn(ctx context.Context, conn net.Conn, wopt WorkerOptions) error {
	defer conn.Close()
	w := &worker{conn: conn, opt: wopt}
	if w.opt.Clock == nil {
		w.opt.Clock = stream.RealClock{}
	}
	if err := w.serve(ctx); err != nil {
		// Best effort: tell the coordinator why before hanging up.
		w.send(msgError, WorkerError{Msg: err.Error()})
		return err
	}
	return nil
}

type worker struct {
	conn net.Conn
	opt  WorkerOptions

	mu sync.Mutex // serializes frames: results vs heartbeats

	job     JobSpec
	runner  *vcd.BatchRunner
	n       int             // batch size
	query   queries.QueryID // the batch the runner last built
	results vfs.Store       // worker-local result staging
	shipped map[string]bool // result files already sent
	// iv brackets the job in this process's sinks; summarize ships its
	// reading (begun only by a remote worker the job asks for metrics).
	iv metrics.Interval
}

func (w *worker) send(kind byte, v any) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return writeMsg(w.conn, kind, v)
}

func (w *worker) serve(ctx context.Context) error {
	// The first frame is the only read a half-open coordinator can wedge
	// indefinitely (afterwards the conversation is the coordinator's
	// responsibility, bounded by its own heartbeat window), so it alone
	// gets a deadline.
	if t := w.opt.FirstFrameTimeout; t > 0 {
		w.conn.SetReadDeadline(time.Now().Add(t))
	}
	kind, body, err := readMsg(w.conn)
	if err != nil {
		return fmt.Errorf("shard: worker: reading job: %w", err)
	}
	if w.opt.FirstFrameTimeout > 0 {
		w.conn.SetReadDeadline(time.Time{})
	}
	if kind != msgJob {
		return fmt.Errorf("shard: worker: expected job manifest, got type %d", kind)
	}
	if err := decode(kind, body, &w.job); err != nil {
		return err
	}
	if err := w.setup(); err != nil {
		return err
	}
	// The job's decoded frames go back to the frame registry when the
	// conversation ends — after summarize has read the cache counters,
	// with no assignment running — so the next job decodes into them.
	defer w.runner.Close()
	// Heartbeat for the whole conversation — the coordinator enforces a
	// read deadline even while a worker idles between queries, so
	// liveness cannot depend on having work.
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	if w.job.HeartbeatNS > 0 {
		interval := time.Duration(w.job.HeartbeatNS) / 3
		var hbDone sync.WaitGroup
		hbDone.Add(1)
		// Cancel before waiting: hbCtx must be dead by the time Wait
		// runs, or serve stalls up to a full sleep interval on exit.
		defer func() { stopHB(); hbDone.Wait() }()
		go func() {
			defer hbDone.Done()
			for {
				if err := w.opt.Clock.SleepCtx(hbCtx, interval); err != nil {
					return
				}
				if w.send(msgHeartbeat, struct{}{}) != nil {
					return
				}
			}
		}()
	}
	for {
		kind, body, err := readMsg(w.conn)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, stream.ErrTruncated) {
				return nil // coordinator went away; nothing left to do
			}
			return err
		}
		switch kind {
		case msgAssign:
			var a Assignment
			if err := decode(kind, body, &a); err != nil {
				return err
			}
			if err := w.runAssignment(a); err != nil {
				return err
			}
		case msgFinish:
			return w.summarize()
		default:
			return fmt.Errorf("shard: worker: unexpected message type %d", kind)
		}
	}
}

// setup loads the dataset, instantiates the engine, and prepares the
// batch runner with a worker-local result store.
func (w *worker) setup() error {
	store := w.opt.Store
	if store == nil {
		var err error
		store, err = openDataset(w.job.Dataset)
		if err != nil {
			return err
		}
	}
	ds, err := vcd.LoadDataset(store, detect.ProfileSynthetic)
	if err != nil {
		return fmt.Errorf("shard: worker: loading dataset: %w", err)
	}
	sys, err := newSystem(w.job.System)
	if err != nil {
		return err
	}
	if w.job.Metrics && !w.opt.InProcess {
		metrics.SetEnabled(true)
		w.iv = metrics.Begin()
	}
	opt := w.job.Opt
	if opt.Mode == vcd.WriteMode {
		w.results = vfs.NewMemory()
		w.shipped = map[string]bool{}
		opt.ResultStore = w.results
	}
	w.runner, err = vcd.NewBatchRunner(ds, sys, opt)
	if err != nil {
		return err
	}
	w.runner.SetShard(w.job.Shard)
	w.n = w.job.Opt.InstancesPerScale * ds.Manifest.Scale
	return nil
}

// openDataset resolves a DatasetSpec into a store.
func openDataset(spec DatasetSpec) (vfs.Store, error) {
	switch {
	case spec.Path != "":
		return vfs.NewLocal(spec.Path)
	case spec.Gen != nil:
		store := vfs.NewMemory()
		if err := spec.Gen.Generate(store, 0); err != nil {
			return nil, fmt.Errorf("shard: worker: regenerating dataset: %w", err)
		}
		return store, nil
	}
	return nil, errors.New("shard: worker: empty dataset spec")
}

// runAssignment executes and validates one index subset and streams
// results followed by the done frame. A query's first assignment
// quiesces the engine after the previous batch, if any, and builds the
// batch: once per batch, however many assignments it arrives in.
func (w *worker) runAssignment(a Assignment) error {
	if a.Query != w.query {
		if w.query != "" {
			w.runner.Quiesce()
		}
		if err := w.runner.Begin(a.Query, w.n); err != nil {
			return fmt.Errorf("shard: worker: %s batch: %w", a.Query, err)
		}
		w.query = a.Query
	}
	results := make([]vcd.InstanceResult, len(a.Indices))
	if err := w.runner.Execute(context.Background(), a.Indices, results); err != nil {
		return fmt.Errorf("shard: worker: %s subset: %w", a.Query, err)
	}
	if _, err := w.runner.Settle(a.Indices, results); err != nil {
		return err
	}
	for i, res := range results {
		wire := InstanceResultWire{Query: string(a.Query), Seq: a.Seq, Index: a.Indices[i], InstanceResult: res}
		if i < len(a.Traces) {
			wire.Trace = a.Traces[i]
		}
		if w.results != nil {
			files, err := w.collectFiles(vcd.ResultNamePrefix(a.Query, a.Indices[i]))
			if err != nil {
				return err
			}
			wire.Files = files
		}
		if err := w.send(msgResult, wire); err != nil {
			return err
		}
	}
	return w.send(msgDone, AssignmentDone{Query: string(a.Query), Seq: a.Seq})
}

// collectFiles ships the result payloads belonging to one instance:
// persisted names embed the query and global index, so the prefix
// attributes store contents exactly. A result frame therefore carries
// everything its instance produced — if the worker dies before the
// assignment completes, every received result is still whole.
func (w *worker) collectFiles(prefix string) ([]ResultFile, error) {
	names, err := w.results.List()
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var out []ResultFile
	for _, name := range names {
		if w.shipped[name] || !strings.HasPrefix(name, prefix) {
			continue
		}
		data, err := vfs.ReadAll(w.results, name)
		if err != nil {
			return nil, err
		}
		w.shipped[name] = true
		out = append(out, ResultFile{Name: name, Data: data})
	}
	return out, nil
}

// summarize sends the final ack: cache counters plus, for remote
// workers, the telemetry interval in mergeable wire form.
func (w *worker) summarize() error {
	sum := vcd.Measured{Cache: w.runner.CacheStats()}
	sum.Telemetry, sum.Spans, sum.SpansLost = w.iv.Read()
	return w.send(msgSummary, sum)
}
