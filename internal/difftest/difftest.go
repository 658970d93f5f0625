// Package difftest is the benchmark's differential test: the one
// harness that proves a run's output a function of its dataset and plan
// only, whatever execution mode, decode layer, tile grid, metrics
// setting, topology or fault it runs under. Each pinned seed draws
// one configuration and holds its run to a reference run byte for byte.
// The shard and vcd tests run it, whole or by the combinations a test
// names; it is a package of its own because _test.go files cannot share
// code across packages.
package difftest

import (
	"cmp"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/vcd"
	"repro/internal/vcity"
	"repro/internal/vdbms"
	"repro/internal/vfs"
	"repro/internal/video"
)

// Seeds are the pinned configurations the tests run; Coverage, held to
// WantCoverage, proves they span what the hand-written suites this
// harness replaced ran. Prove a new path identical by adding a seed that
// draws it.
var Seeds = []uint64{5, 6, 19, 20, 27, 47, 81, 93, 97, 100, 132, 142, 151, 157, 169, 284, 340, 345, 353, 413, 495, 651, 746, 829, 1081, 1332, 1413, 3461, 5193, 6119, 10435}

// The axes a seed draws from. diffQueries exercise shared-input decode
// (every query), the windowed plan (Q1), the blur pipeline (Q2b),
// masking with pooled temporaries (Q2d), resize (Q1, Q5) and the staged
// boxes input (Q6a); noscopelike runs Q1 and Q2(c) only.
var (
	grids          = [][2]int{{1, 1}, {2, 2}, {3, 2}}
	diffQueries    = []queries.QueryID{queries.Q1, queries.Q2b, queries.Q2d, queries.Q5, queries.Q6a}
	noscopeQueries = []queries.QueryID{queries.Q1, queries.Q2c}
)

// instances is each batch's size: InstancesPerScale at scale 1.
const instances = 2

// draw is one configuration of a run.
type draw struct {
	seed     uint64
	grid     [2]int
	engine   string
	queries  []queries.QueryID
	decode   string // "selective", or "whole-clip" through wholeClipSource (in process only)
	mode     string // "sequential", "workers=1" or "workers=8"
	procs    string // GOMAXPROCS: "default" or "1"
	metrics  bool
	topology string // "in-process", "pipe", "tcp", "online/pipe" or "online/rtp"
	shards   int    // pipe or TCP workers
	kill     int    // the pipe worker the fault plan cuts, or -1
}

// drawConfig derives a configuration from seed, one independent stream
// per axis.
func drawConfig(seed uint64) draw {
	axis := vcity.NewRNG(seed).Split
	pick := func(label string, opts ...string) string { return opts[axis(label).Intn(len(opts))] }
	d := draw{seed: seed, kill: -1, decode: "selective"}
	d.grid = grids[axis("grid").Intn(len(grids))]
	d.engine = pick("engine", "scannerlike", "lightdblike", "noscopelike")
	pool := diffQueries
	if d.engine == "noscopelike" {
		pool = noscopeQueries
	}
	if qs := axis("queries"); qs.Bool(0.5) {
		d.queries = pool
	} else {
		for len(d.queries) == 0 {
			for _, q := range pool {
				if qs.Bool(0.5) {
					d.queries = append(d.queries, q)
				}
			}
		}
	}
	top := axis("topology")
	switch d.topology = [...]string{"in-process", "pipe", "tcp"}[top.Intn(3)]; d.topology {
	case "pipe":
		d.shards = 1 + top.Intn(4)
	case "tcp":
		d.shards = 2
	}
	if o := axis("online"); d.topology == "in-process" && d.engine == "lightdblike" && o.Bool(0.25) {
		// Every input streamed to the engine, on a fake clock.
		d.topology = "online/" + [...]string{"pipe", "rtp"}[o.Intn(2)]
	}
	if d.topology == "in-process" && axis("decode").Bool(0.5) {
		d.decode = "whole-clip"
		if d.queries[0] != queries.Q1 {
			d.queries = append([]queries.QueryID{queries.Q1}, d.queries...)
		}
	}
	d.mode = pick("mode", "sequential", "workers=1", "workers=8")
	if d.procs = "default"; axis("gomaxprocs").Bool(0.5) {
		d.procs = "1"
	}
	d.metrics = axis("metrics").Bool(0.5)
	if f := axis("fault"); d.topology == "pipe" && d.shards >= 2 && f.Bool(0.5) {
		// Cut a worker that owns part of the first batch, so its death
		// always leaves work to reassign.
		var owners []int
		for s, part := range shard.Partition(d.queries[0], instances, d.shards) {
			if len(part) > 0 {
				owners = append(owners, s)
			}
		}
		d.kill = owners[f.Intn(len(owners))]
	}
	return d
}

// key names the reference run a draw is held to.
func (d draw) key() string {
	qs := make([]string, len(d.queries))
	for i, q := range d.queries {
		qs[i] = string(q)
	}
	return fmt.Sprintf("%dx%d/%s/%s", d.grid[0], d.grid[1], d.engine, strings.Join(qs, ","))
}

// where names the topology with its worker count.
func (d draw) where() string {
	return strings.TrimSuffix(fmt.Sprintf("%s/%d", d.topology, d.shards), "/0")
}

func (d draw) String() string {
	return fmt.Sprintf("seed=%d %s decode=%s mode=%s gomaxprocs=%s metrics=%v topology=%s killed-worker=%d",
		d.seed, d.key(), d.decode, d.mode, d.procs, d.metrics, d.where(), d.kill)
}

// genSpec is the dataset of a grid, as remote workers regenerate it.
func genSpec(grid [2]int) *shard.GenSpec {
	return &shard.GenSpec{Scale: 1, Width: 128, Height: 96, Duration: 1, FPS: 15, Seed: 7, QP: 18,
		Captions: true, TileRows: grid[0], TileCols: grid[1]}
}

// datasets holds each grid's dataset, generated once per test binary.
var datasets = map[[2]int]*vfs.Memory{}

func dataset(t *testing.T, grid [2]int) *vfs.Memory {
	if datasets[grid] == nil {
		store := vfs.NewMemory()
		if err := genSpec(grid).Generate(store, 0); err != nil {
			t.Fatal(err)
		}
		datasets[grid] = store
	}
	return datasets[grid]
}

// wholeClipSource is the reference decode layer: it serves every request
// by decoding the whole clip — [0, n) × every tile — and slicing the
// window out, bypassing range and tile selection in the codec and the
// cache, so a run staged on it is the baseline selective decode matches.
type wholeClipSource struct{ ds *vcd.Dataset }

func (s wholeClipSource) SharedCache() bool { return s.ds.SharedCache() }

func (s wholeClipSource) Decoded(in *vdbms.Input, req codec.Request) (*video.Video, error) {
	n := len(in.Encoded.Frames)
	if req.Lo < 0 || req.Hi > n || req.Lo > req.Hi {
		return nil, fmt.Errorf("frame range [%d, %d) outside [0, %d]", req.Lo, req.Hi, n)
	}
	v, err := s.ds.Decoded(in, codec.Request{Hi: n, Workers: req.Workers})
	if err != nil {
		return nil, err
	}
	return &video.Video{FPS: v.FPS, Frames: v.Frames[req.Lo:req.Hi]}, nil
}

// outcome is a run's report, its shard counters (nil in process) and its
// fingerprint: the canonical report's lines, one line per instance
// (frames, error, verdict) and one "name sha256" per persisted result.
type outcome struct {
	report                        *vcd.RunReport
	counters                      *shard.Counters
	canonical, instances, results []string
	framesRequested               int64
}

// run executes d and fingerprints its output.
func run(t *testing.T, d draw) outcome {
	store := vfs.NewMemory()
	opt := vcd.Options{
		Queries: d.queries, InstancesPerScale: instances, Seed: 42,
		Mode: vcd.WriteMode, ResultStore: store, Validate: true,
		Sequential: d.mode == "sequential",
	}
	if d.mode != "sequential" {
		fmt.Sscanf(d.mode, "workers=%d", &opt.Workers)
	}
	if d.procs == "1" {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	defer metrics.SetEnabled(metrics.Enabled())
	metrics.SetEnabled(d.metrics)

	if name, ok := strings.CutPrefix(d.topology, "online/"); ok {
		transport, _ := vcd.ParseOnlineTransport(name) // a name drawConfig picked
		opt.Online = &vcd.OnlineOptions{Transport: transport, Clock: func() stream.Clock { return stream.NewFakeClock(time.Unix(0, 0)) }}
	}

	var out outcome
	if d.topology == "in-process" || opt.Online != nil {
		out.report = runInProcess(t, d, opt)
	} else {
		out.report, out.counters = runSharded(t, d, opt)
	}
	out.framesRequested = out.report.DecodedCache.FramesRequested
	canonical, err := vcd.MarshalReport(vcd.Summarize(out.report).Canonical())
	if err != nil {
		t.Fatal(err)
	}
	out.canonical = strings.Split(string(canonical), "\n")
	for _, qr := range out.report.Queries {
		for i, in := range qr.Instances {
			line := fmt.Sprintf("%s[%d] frames=%d err=%v", qr.Query, i, in.Frames, in.Err)
			if v := in.Validation; v != nil {
				line += fmt.Sprintf(" checked=%v passed=%v psnr=%v semantic=%d/%d err=%v",
					v.Checked, v.Passed, v.PSNR, v.SemanticPassed, v.SemanticChecked, v.Err)
			}
			out.instances = append(out.instances, line)
		}
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := vfs.ReadAll(store, name)
		if err != nil {
			t.Fatal(err)
		}
		out.results = append(out.results, fmt.Sprintf("%s %x", name, sha256.Sum256(data)))
	}
	return out
}

// runInProcess runs d through vcd.Run on a dataset of its own, so what
// a run stages and caches does not carry over to the next seed.
func runInProcess(t *testing.T, d draw, opt vcd.Options) *vcd.RunReport {
	ds, err := vcd.LoadDataset(dataset(t, d.grid), detect.ProfileSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; d.decode == "whole-clip" && i < len(ds.Manifest.Videos); i++ {
		in, err := ds.Input(ds.Manifest.Videos[i].CameraID)
		if err != nil {
			t.Fatal(err)
		}
		in.Source = wholeClipSource{ds}
	}
	sys, err := shard.NewSystem(shard.SystemSpec{Name: d.engine})
	if err != nil {
		t.Fatal(err)
	}
	report, err := vcd.Run(ds, sys, opt)
	if err != nil {
		t.Fatalf("%v: %v", d, err)
	}
	return report
}

// runSharded runs d through the coordinator: in-process pipe workers
// sharing the dataset's store, or TCP workers that regenerate it from
// its GenSpec.
func runSharded(t *testing.T, d draw, opt vcd.Options) (*vcd.RunReport, *shard.Counters) {
	// A coordinator that loses an instance waits for it forever; the
	// deadline turns that into this draw's failure.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	copt := shard.Options{Shards: d.shards}
	if d.kill >= 0 {
		copt.Faults = &stream.FaultPlan{Seed: 1, CutAtPacket: 1}
		copt.FaultWorkers = []int{d.kill}
	}
	if d.topology == "tcp" {
		var addrs []string
		for i := 0; i < d.shards; i++ {
			srv, err := shard.ListenWorker("127.0.0.1:0", shard.WorkerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			go srv.Serve(ctx)
			addrs = append(addrs, srv.Addr())
		}
		copt.Transport = &shard.AddrTransport{Addrs: addrs}
	}
	report, counters, err := shard.Run(ctx, shard.Plan{
		Dataset: shard.DatasetSpec{Gen: genSpec(d.grid)},
		Store:   dataset(t, d.grid),
		System:  shard.SystemSpec{Name: d.engine},
		Scale:   1,
		Opt:     opt,
	}, copt)
	if err != nil {
		t.Fatalf("%v: %v", d, err)
	}
	return report, counters
}

// references holds each (grid, engine, query set)'s reference run: in
// process, Workers: 1, whole-clip decode, metrics off. stageCounts holds
// the first stage counts sameCounts saw under a key, and their seed.
var (
	references  = map[string]outcome{}
	stageCounts = map[string]struct {
		seed   uint64
		counts []string
	}{}
)

func referenceFor(t *testing.T, d draw) outcome {
	if _, ok := references[d.key()]; !ok {
		ref := run(t, draw{grid: d.grid, engine: d.engine, queries: d.queries, decode: "whole-clip",
			mode: "workers=1", procs: "default", topology: "in-process", kill: -1})
		ref.report = nil // and the outputs it captured for validation
		references[d.key()] = ref
	}
	return references[d.key()]
}

// Run is the determinism contract of the whole benchmark: canonical
// output is a function of (dataset, plan) only. It runs, one subtest
// named seed=N each, every pinned seed whose draw covers one of labels
// (Coverage's names; every pinned seed when none is given). A seed draws
// a tile grid, an engine and query set, a decode layer, an execution
// mode, GOMAXPROCS, metrics, a topology and a fault, and the run must
// match the reference run of its (grid, engine, query set) byte for byte
// — canonical report, per-instance results and verdicts, and every
// persisted result — besides the checks its draw implies. A failure
// prints the seed and its draw on one line; `go test -run
// 'TestDifferential/seed=N$' ./internal/shard` reproduces it (a stage
// count mismatch names the second seed to add). Metrics are process
// state, so the subtests run one at a time.
func Run(t *testing.T, labels ...string) {
	if testing.Short() {
		t.Skip("end-to-end runs in -short mode")
	}
	seeds := Seeds
	if len(labels) > 0 {
		cov := Coverage(Seeds)
		seeds = nil
		for _, l := range labels {
			if len(cov[l]) == 0 {
				t.Fatalf("no pinned seed draws %s", l)
			}
			seeds = append(seeds, cov[l]...)
		}
		slices.Sort(seeds)
		seeds = slices.Compact(seeds)
	}
	for _, seed := range seeds {
		d := drawConfig(seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			want := referenceFor(t, d)
			got := run(t, d)
			c := &checker{t: t, d: d}
			c.identical(want, got)
			c.cache(want, got)
			c.observability(got)
			c.sharded(got)
		})
	}
}

// checker reports a failure prefixed with the draw that produced it.
type checker struct {
	t *testing.T
	d draw
}

func (c *checker) errorf(format string, args ...any) {
	c.t.Errorf("%v: %s", c.d, fmt.Sprintf(format, args...))
}

// identical holds the run to its reference: the canonical report bytes,
// each instance's frames, error and validation verdict, and the names
// and sha256 of the persisted results.
func (c *checker) identical(want, got outcome) {
	c.same("canonical report line", got.canonical, want.canonical)
	c.same("instance", got.instances, want.instances)
	c.same("persisted result", got.results, want.results)
}

func (c *checker) same(what string, got, want []string) {
	if i, g, w := firstDiff(got, want); i >= 0 {
		c.errorf("%s %d of %d: got %s, want %s", what, i+1, len(want), g, w)
	}
}

// firstDiff returns the first line where got and want differ, and each
// side's line there, quoted ([] past its end), or -1.
func firstDiff(got, want []string) (int, string, string) {
	i := 0
	for i < min(len(got), len(want)) && got[i] == want[i] {
		i++
	}
	if i == len(got) && i == len(want) {
		return -1, "", ""
	}
	return i, fmt.Sprintf("%q", got[i:min(i+1, len(got))]), fmt.Sprintf("%q", want[i:min(i+1, len(want))])
}

// cache checks the decoded cache's counters: untouched in sequential
// mode; in process on the shared cache, it misses, and selective decode
// asks it for no more frames than the whole-clip reference.
func (c *checker) cache(want, got outcome) {
	st := got.report.DecodedCache
	switch {
	case c.d.mode == "sequential":
		if st.Hits != 0 || st.Misses != 0 {
			c.errorf("sequential mode used the decoded cache: %+v", st)
		}
	case c.d.topology == "in-process":
		if st.Misses == 0 {
			c.errorf("cached run recorded no decode misses; the cache is disconnected")
		}
		if c.d.decode == "selective" && (st.FramesRequested == 0 || st.FramesRequested > want.framesRequested) {
			c.errorf("selective decode requested %d frames, the whole-clip reference %d", st.FramesRequested, want.framesRequested)
		}
	}
}

// observability checks the metrics layer: absent when off; when on, a
// run wall clock, live decode/execute/validate distributions in every
// batch, pool activity at 8 workers, and request-stage counts equal to
// every other metrics-on run of the same plan.
func (c *checker) observability(got outcome) {
	r := got.report
	if c.d.metrics != (r.Telemetry != nil) || c.d.metrics && r.Telemetry.WallMS <= 0 {
		c.errorf("metrics=%v: run telemetry present=%v, or its wall clock is not positive", c.d.metrics, r.Telemetry != nil)
	}
	if !c.d.metrics || r.Telemetry == nil {
		return
	}
	// Execute, validate and result.encode counts are a function of the
	// plan; decode also counts each dataset's staging decodes (Q6(a)'s
	// boxes), which a sharded run repeats in every worker that holds an
	// instance, so decode counts compare at equal topology.
	var plan, decode []string
	for _, qr := range r.Queries {
		if qr.Telemetry == nil {
			c.errorf("%s: no batch telemetry", qr.Query)
			continue
		}
		for _, stage := range []metrics.Stage{metrics.StageDecode, metrics.StageExecute, metrics.StageValidate} {
			st := qr.Telemetry.Stage(stage)
			if st.Count == 0 || st.P50MS <= 0 || st.P95MS <= 0 || st.P99MS <= 0 {
				c.errorf("%s/%s: %d spans, p50=%g p95=%g p99=%g", qr.Query, stage, st.Count, st.P50MS, st.P95MS, st.P99MS)
			}
		}
		// Decode's frame attribution depends on the serving path
		// (window vs window+seed); only its request count is fixed.
		decode = append(decode, fmt.Sprintf("%s/decode count=%d", qr.Query, qr.Telemetry.Stage(metrics.StageDecode).Count))
		for _, stage := range []metrics.Stage{metrics.StageExecute, metrics.StageValidate, metrics.StageResultEncode} {
			st := qr.Telemetry.Stage(stage)
			plan = append(plan, fmt.Sprintf("%s/%s count=%d frames=%d", qr.Query, stage, st.Count, st.Frames))
		}
	}
	if w := r.Telemetry.Stage(metrics.StageExecute).Workers; c.d.mode == "workers=8" && w < 2 {
		c.errorf("workers=8 run observed %d execute workers, want >= 2", w)
	}
	if c.d.kill < 0 { // a killed worker's instances execute twice, spans and all
		c.sameCounts(c.d.key(), plan)
		c.sameCounts(c.d.key()+" on "+c.d.where(), decode)
	}
}

// sameCounts holds a run's stage counts to the first run that recorded
// counts under key.
func (c *checker) sameCounts(key string, counts []string) {
	prev, ok := stageCounts[key]
	if !ok {
		prev.seed, prev.counts = c.d.seed, counts
		stageCounts[key] = prev
	} else if i, g, w := firstDiff(counts, prev.counts); i >= 0 {
		c.errorf("%s, seed=%d had %s", g, prev.seed, w)
	}
}

// sharded checks the shard plane's counters and, with metrics on, its
// trace and event journal: a clean run has one worker per shard and no
// degradation; a killed worker is detected, its instances retried on a
// survivor, and the journal audits each reassignment after the death.
func (c *checker) sharded(got outcome) {
	n := got.counters
	if n == nil {
		return
	}
	var kinds map[string]int
	if c.d.metrics {
		checkTraceRoundTrip(c, got)
		kinds = checkEventJournal(c, got)
	}
	if c.d.kill < 0 {
		if *n != (shard.Counters{Workers: c.d.shards}) {
			c.errorf("zero-fault run has counters %+v", *n)
		}
		if kinds[metrics.EventWorkerDead]+kinds[metrics.EventInstanceReassigned]+kinds[metrics.EventDuplicateDropped] != 0 {
			c.errorf("zero-fault run journaled degradation events: %v", kinds)
		}
		return
	}
	if n.WorkerFailures < 1 || n.Reassignments < 1 || n.RetriedInstances < 1 {
		c.errorf("killed worker not detected and retried: counters %+v", *n)
	}
	if !c.d.metrics {
		return
	} else if kinds[metrics.EventInstanceReassigned] != int(n.Reassignments) {
		c.errorf("journal has %d instance_reassigned events, counters report %d reassignments",
			kinds[metrics.EventInstanceReassigned], n.Reassignments)
	}
	var deadSeq, reassignSeq uint64
	for _, e := range got.report.Events {
		if e.Kind == metrics.EventWorkerDead {
			deadSeq = cmp.Or(deadSeq, e.Seq)
		}
		if e.Kind == metrics.EventInstanceReassigned {
			if reassignSeq = cmp.Or(reassignSeq, e.Seq); e.Count <= 0 {
				c.errorf("reassignment event carries no instance count: %+v", e)
			}
		}
	}
	if deadSeq == 0 || reassignSeq == 0 || deadSeq > reassignSeq {
		c.errorf("worker_dead (seq %d) does not precede instance_reassigned (seq %d)", deadSeq, reassignSeq)
	}
}

// checkTraceRoundTrip asserts the merged report carries a reconstructed
// trace layer whose instance timelines use exactly the deterministic
// IDs the contract promises: InstanceTraceID(seed, query, index) for
// every instance the run executed, regardless of transport.
func checkTraceRoundTrip(c *checker, got outcome) {
	tr := got.report.Trace
	if tr == nil {
		c.errorf("traced run produced no trace report")
		return
	}
	// The expected ID set is a pure function of the plan.
	want := map[metrics.TraceID]string{}
	for _, q := range got.report.Queries {
		for i := 0; i < q.BatchSize; i++ {
			want[metrics.InstanceTraceID(42, string(q.Query), i)] = string(q.Query)
		}
	}
	if tr.Instances != len(want) || len(tr.Timelines) != tr.Instances {
		c.errorf("%d instance timelines, %d carried, want %d", tr.Instances, len(tr.Timelines), len(want))
	}
	for _, tl := range tr.Timelines {
		// A second timeline of one instance is not in want any more.
		if q, ok := want[tl.Trace]; !ok || tl.Shard < 0 || len(tl.Spans) == 0 || tl.WallMS <= 0 {
			c.errorf("%s timeline %#x: deterministic ID seen once %v, shard %d, %d spans, %.3fms",
				q, uint64(tl.Trace), ok, tl.Shard, len(tl.Spans), tl.WallMS)
		}
		delete(want, tl.Trace)
	}
	if len(want) > 0 {
		c.errorf("no timeline for the instances %v", want)
	}
	// Per-worker attribution covers every instance and names a straggler.
	sum := 0
	for _, w := range tr.Workers {
		if w.Shard < 0 || w.Instances <= 0 || w.TotalMS <= 0 || w.P99MS <= 0 {
			c.errorf("empty or unattributed worker row %+v", w)
		}
		sum += w.Instances
	}
	if sum != tr.Instances {
		c.errorf("worker rows cover %d instances, want %d", sum, tr.Instances)
	}
	if tr.SlowestShard < 0 || tr.CriticalPathMS <= 0 || tr.P99InstanceMS <= 0 {
		c.errorf("straggler attribution missing: slowest=%d critical=%.3f p99=%.3f",
			tr.SlowestShard, tr.CriticalPathMS, tr.P99InstanceMS)
	}
}

// checkEventJournal asserts the run's journal interval is ordered and
// contains the lifecycle skeleton every successful run emits, and
// returns the number of events of each kind.
func checkEventJournal(c *checker, got outcome) map[string]int {
	kinds := map[string]int{}
	var last uint64
	for _, e := range got.report.Events {
		if e.Seq <= last {
			c.errorf("event seq %d after %d — journal not ordered", e.Seq, last)
		}
		last = e.Seq
		kinds[e.Kind]++
	}
	if kinds[metrics.EventJobSubmitted] != 1 || kinds[metrics.EventShardAssigned] == 0 ||
		kinds[metrics.EventMergeComplete] != len(c.d.queries) {
		c.errorf("journal %v: want 1 job_submitted, shard_assigned, %d merge_complete", kinds, len(c.d.queries))
	}
	return kinds
}

// Coverage names the combinations the seeds run, each with the seeds
// that run it: all of diffQueries for the execution modes, metrics and
// topologies (and on every grid), Q1's window for the decode layers. A
// stage-count pair names both of its seeds.
func Coverage(seeds []uint64) map[string][]uint64 {
	got := map[string][]uint64{}
	add := func(seed uint64, format string, args ...any) {
		if c := fmt.Sprintf(format, args...); !slices.Contains(got[c], seed) {
			got[c] = append(got[c], seed)
		}
	}
	traced := map[string]map[string]uint64{} // reference key → mode → its first in-process metrics-on draw
	for _, seed := range seeds {
		d := drawConfig(seed)
		if d.queries[0] == queries.Q1 {
			if d.topology == "in-process" {
				add(seed, "%s %s decode on %dx%d", d.engine, d.decode, d.grid[0], d.grid[1])
			}
			add(seed, "%s on %dx%d", d.engine, d.grid[0], d.grid[1])
		}
		if len(d.queries) != len(diffQueries) {
			continue
		}
		add(seed, "%s all queries on %dx%d", d.engine, d.grid[0], d.grid[1])
		add(seed, "metrics=%v %s", d.metrics, d.mode)
		switch {
		case d.kill >= 0:
			add(seed, "kill worker metrics=%v", d.metrics)
		case d.topology != "in-process":
			add(seed, "%s", d.where())
			if d.metrics {
				add(seed, "metrics=true %s", d.topology)
			}
		case d.procs == "1":
			add(seed, "%s %s/gomaxprocs=1", d.engine, d.mode)
		default:
			add(seed, "%s %s", d.engine, d.mode)
		}
		if d.metrics && d.topology == "in-process" {
			modes := traced[d.key()]
			if modes == nil {
				modes = map[string]uint64{}
				traced[d.key()] = modes
			}
			if _, ok := modes[d.mode]; !ok {
				modes[d.mode] = seed
			}
			if seq, ok := modes["sequential"]; ok {
				if wide, ok := modes["workers=8"]; ok {
					add(seq, "%s stage counts sequential=workers=8", d.engine)
					add(wide, "%s stage counts sequential=workers=8", d.engine)
				}
			}
		}
	}
	return got
}

// WantCoverage is every combination the deleted suites ran, in
// Coverage's terms.
var WantCoverage = []string{
	"scannerlike sequential", "scannerlike workers=1", "scannerlike workers=8", "scannerlike workers=8/gomaxprocs=1",
	"lightdblike sequential", "lightdblike workers=1", "lightdblike workers=8", "lightdblike workers=8/gomaxprocs=1",
	"scannerlike stage counts sequential=workers=8", "lightdblike stage counts sequential=workers=8",
	"scannerlike all queries on 1x1", "scannerlike all queries on 2x2", "scannerlike all queries on 3x2",
	"lightdblike all queries on 1x1", "lightdblike all queries on 2x2", "lightdblike all queries on 3x2",
	"scannerlike selective decode on 1x1", "scannerlike selective decode on 2x2",
	"scannerlike whole-clip decode on 1x1", "scannerlike whole-clip decode on 2x2",
	"lightdblike selective decode on 1x1", "lightdblike selective decode on 2x2",
	"lightdblike whole-clip decode on 1x1", "lightdblike whole-clip decode on 2x2",
	"noscopelike selective decode on 1x1", "noscopelike selective decode on 2x2",
	"noscopelike whole-clip decode on 1x1", "noscopelike whole-clip decode on 2x2", "noscopelike on 3x2",
	"metrics=false sequential", "metrics=false workers=8", "metrics=true sequential", "metrics=true workers=8",
	"kill worker metrics=false", "kill worker metrics=true",
	"pipe/1", "pipe/2", "pipe/4", "tcp/2", "metrics=true pipe", "metrics=true tcp",
	"online/pipe", "online/rtp",
}
