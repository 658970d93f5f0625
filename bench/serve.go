package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/queries"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/vcd"
	"repro/internal/vfs"
)

const shardWorkers = 2

// Phase A's share of the measuring time. The traced pass takes the open
// loop's latencies from it; the end-to-end pass only needs it to feed the
// gates (every job admitted and done, every 10th report checked) and
// leaves the rest to the closed loop its timings come from.
const (
	openLoopShareTraced   = 0.5
	openLoopShareEndToEnd = 0.2
)

// rig is the system under test of serve_openloop: a real serve.Server
// with its default admission limits on a loopback listener, over a pool
// of TCP shard workers, all in this process.
type rig struct {
	base    string
	client  *http.Client
	addrs   []string
	dataDir string
	paths   map[string]string // registered dataset name → directory
	refused atomic.Int64

	cancel  context.CancelFunc
	httpSrv *http.Server
	workers []*shard.WorkerServer
	wg      sync.WaitGroup
}

func startRig(dir string) (*rig, error) {
	ctx, cancel := context.WithCancel(context.Background())
	g := &rig{dataDir: filepath.Join(dir, "served"), paths: map[string]string{}, cancel: cancel}
	fail := func(err error) (*rig, error) {
		g.close()
		return nil, err
	}
	for i := 0; i < shardWorkers; i++ {
		ws, err := shard.ListenWorker("127.0.0.1:0", shard.WorkerOptions{})
		if err != nil {
			return fail(err)
		}
		g.workers = append(g.workers, ws)
		g.addrs = append(g.addrs, ws.Addr())
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			ws.Serve(ctx) // returns when ctx ends; failed conversations surface as failed jobs
		}()
	}
	srv, err := serve.New(serve.Options{DataDir: g.dataDir, WorkerAddrs: g.addrs})
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	g.base = "http://" + ln.Addr().String()
	g.httpSrv = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	g.wg.Add(2)
	go func() {
		defer g.wg.Done()
		g.httpSrv.Serve(ln) // ErrServerClosed at shutdown
	}()
	go func() {
		defer g.wg.Done()
		srv.Run(ctx) // context.Canceled at shutdown
	}()
	// Load comes from at most nproc connections.
	g.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU(), MaxConnsPerHost: runtime.NumCPU()}}
	return g, nil
}

// close stops the daemon and the workers and waits for their goroutines.
func (g *rig) close() {
	g.cancel()
	if g.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		g.httpSrv.Shutdown(ctx)
		cancel()
	}
	for _, ws := range g.workers {
		ws.Close()
	}
	g.wg.Wait()
	if g.client != nil {
		g.client.CloseIdleConnections()
	}
}

// call does one API round trip and decodes the JSON answer into out.
func (g *rig) call(ctx context.Context, method, path, tenant string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, g.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		if resp.StatusCode == http.StatusTooManyRequests {
			g.refused.Add(1)
		}
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (g *rig) register(name, path string) error {
	body, _ := json.Marshal(map[string]string{"name": name, "path": path})
	g.paths[name] = path
	return g.call(context.Background(), "POST", "/api/datasets", "", body, http.StatusCreated, nil)
}

// submit is the generator's submitFunc: anything but 202 is a failure.
func (g *rig) submit(ctx context.Context, a arrival) (string, error) {
	var j serve.Job
	err := g.call(ctx, "POST", "/api/jobs", a.Tenant, a.Body, http.StatusAccepted, &j)
	return j.ID, err
}

// await polls one job until it reaches a terminal state.
func (g *rig) await(ctx context.Context, id string) (serve.Job, error) {
	for {
		var j serve.Job
		if err := g.call(ctx, "GET", "/api/jobs/"+id, "", nil, http.StatusOK, &j); err != nil {
			return j, err
		}
		if j.Status.Terminal() {
			return j, nil
		}
		select {
		case <-ctx.Done():
			return j, ctx.Err()
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// drain waits until every job the daemon knows is terminal and returns
// them by ID. Nothing polls while the open loop runs; this is the one
// place the timestamps are read.
func (g *rig) drain(ctx context.Context) (map[string]serve.Job, error) {
	for {
		var list struct {
			Jobs []serve.Job `json:"jobs"`
		}
		if err := g.call(ctx, "GET", "/api/jobs", "", nil, http.StatusOK, &list); err != nil {
			return nil, err
		}
		pending := 0
		out := make(map[string]serve.Job, len(list.Jobs))
		for _, j := range list.Jobs {
			out[j.ID] = j
			if !j.Status.Terminal() {
				pending++
			}
		}
		if pending == 0 {
			return out, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("draining: %d jobs still pending: %w", pending, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// directPlan is the plan the daemon builds for a job body (serve's
// buildPlan), for running it through shard.Run without the daemon.
func (g *rig) directPlan(job jobBody) (shard.Plan, shard.Options, error) {
	qs, err := queries.ParseList(strings.Join(job.Queries, ","))
	if err != nil {
		return shard.Plan{}, shard.Options{}, err
	}
	plan := shard.Plan{
		Dataset: shard.DatasetSpec{Path: g.paths[job.Dataset]},
		System:  shard.SystemSpec{Name: job.System},
		Scale:   dsScale,
		Opt: vcd.Options{
			Queries: qs, InstancesPerScale: job.Instances, Seed: job.Seed,
			MaxUpsamplePixels: 1 << 24, Mode: vcd.StreamingMode,
		},
	}
	return plan, shard.Options{Shards: len(g.addrs), Transport: &shard.AddrTransport{Addrs: g.addrs}}, nil
}

// directCanonical runs a job body through shard.Run on the same workers
// and returns its canonical report and wall-clock.
func (g *rig) directCanonical(ctx context.Context, job jobBody) (string, time.Duration, error) {
	plan, copt, err := g.directPlan(job)
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	rep, _, err := shard.Run(ctx, plan, copt)
	wall := time.Since(t0)
	if err != nil {
		return "", 0, err
	}
	c, err := canonical(rep)
	return c, wall, err
}

// phaseA is the open loop's observations.
type phaseA struct {
	sched   []arrival
	fired   []fired
	jobs    map[string]serve.Job
	latency []float64 // ms from due to ended, completed jobs only
}

// openLoop fires the seeded schedule, drains, and books every job.
func (r *run) openLoop(ctx context.Context, g *rig, horizon time.Duration, datasets int) (*phaseA, error) {
	a := &phaseA{sched: buildSchedule(r.cfg.seed, openLoopRate, horizon, datasets)}
	if r.cfg.smoke && len(a.sched) > 10 {
		a.sched = a.sched[:10]
	}
	submit := g.submit
	if r.tr.on {
		submit = func(ctx context.Context, ar arrival) (string, error) {
			sp := r.tr.start("serve.submit", 0, -1)
			id, err := g.submit(ctx, ar)
			r.tr.end(sp, work{Count: 1, Bytes: int64(len(ar.Body))})
			return id, err
		}
	}
	a.fired = runOpenLoop(ctx, a.sched, runtime.NumCPU(), submit)
	var err error
	if a.jobs, err = g.drain(ctx); err != nil {
		return nil, err
	}
	for i, f := range a.fired {
		if !r.check(f.Err == nil, "job %d (%s): submit: %v", i, a.sched[i].Tenant, f.Err) {
			continue
		}
		j := a.jobs[f.ID]
		if !r.check(j.Status == serve.StatusDone, "job %s is %q: %s", f.ID, j.Status, j.Err) {
			continue
		}
		a.latency = append(a.latency, float64(j.EndedNS-f.Due.UnixNano())/1e6)
	}
	return a, nil
}

// closedJob is one completed job of the closed loop.
type closedJob struct {
	body jobBody
	sent time.Time // just before the submit call
	job  serve.Job // terminal state, with the daemon's timestamps
	jobS float64   // sent → the daemon's ended_ns, seconds
}

// closedJobsPerBatch is how many consecutive closed-loop jobs make one
// "iteration" for batch_s.
const closedJobsPerBatch = 10

// closedLoop runs one client's jobs back to back until the phase's time
// is up.
func (r *run) closedLoop(ctx context.Context, g *rig, datasets int) ([]closedJob, error) {
	jobs := newJobDrawer(r.cfg.seed, "closedloop", datasets)
	var out []closedJob
	for i := 0; r.timed(i) || len(out)%closedJobsPerBatch != 0; i++ {
		a := jobs.next(0)
		a.Tenant = "closed-loop"
		sent := time.Now()
		id, err := g.submit(ctx, a)
		if !r.check(err == nil, "closed-loop job %d: submit: %v", i, err) {
			return out, nil
		}
		j, err := g.await(ctx, id)
		if err != nil {
			return nil, err
		}
		if !r.check(j.Status == serve.StatusDone, "closed-loop job %s is %q: %s", id, j.Status, j.Err) {
			return out, nil
		}
		out = append(out, closedJob{body: a.Job, sent: sent, job: j, jobS: float64(j.EndedNS-sent.UnixNano()) / 1e9})
	}
	return out, nil
}

// jobSeconds lists the jobs' submit→ended times.
func jobSeconds(jobs []closedJob) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = j.jobS
	}
	return out
}

// runServe is the serve_openloop workload.
func runServe(r *run) error {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	t0 := time.Now()
	g, err := startRig(r.tmp)
	if err != nil {
		return err
	}
	defer g.close()
	startS := time.Since(t0).Seconds()

	// Set-up k generates dataset k onto the local filesystem, registers
	// it, and runs one warm-up job on it through the whole stack.
	var setupS, ratios []float64
	var sets []*dataset
	warm := newJobDrawer(r.cfg.seed, "warm", 1)
	for k := 0; k < r.cfg.setups; k++ {
		t0 := time.Now()
		dir := filepath.Join(r.tmp, datasetName(k))
		store, err := vfs.NewLocal(dir)
		if err != nil {
			return err
		}
		d, err := buildDataset(k, store)
		if err != nil {
			return err
		}
		if err := g.register(datasetName(k), dir); err != nil {
			return err
		}
		a := warm.next(0)
		a.Job.Dataset = datasetName(k)
		a.Body, _ = json.Marshal(a.Job)
		id, err := g.submit(ctx, a)
		if err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
		if j, err := g.await(ctx, id); err != nil || j.Status != serve.StatusDone {
			return fmt.Errorf("warm-up job %s: status %q, %v %s", id, j.Status, err, j.Err)
		}
		setupS = append(setupS, startS+time.Since(t0).Seconds())
		ratios = append(ratios, d.ratio)
		sets = append(sets, d)
	}
	r.setMedian("setup_s", setupS)
	if r.cfg.trace {
		return traceServe(ctx, r, g, sets)
	}

	// Phase A, open loop: every job must be admitted and finish, and its
	// reports feed the gates. Its latencies are per-layer metrics of the
	// traced pass (serve.job_p50_ms, serve.job_p75_ms), not end-to-end
	// ones: at ~50 jobs its median could not hold even the widest bound
	// on a shared host (30–34 % spread over ten seeds — every stall of
	// the host queues the jobs behind it).
	horizon := time.Duration(openLoopShareEndToEnd * r.cfg.seconds * float64(time.Second))
	if r.cfg.smoke {
		horizon = 2 * time.Second
	}
	a, err := r.openLoop(ctx, g, horizon, len(sets))
	if err != nil {
		return err
	}
	// Phase B, closed loop: the end-to-end timings, one sample per batch
	// of consecutive jobs.
	r.budget(1 - openLoopShareEndToEnd)
	jobs, err := r.closedLoop(ctx, g, len(sets))
	if err != nil {
		return err
	}
	var jobMS, batchS []float64
	for i := closedJobsPerBatch; i <= len(jobs); i += closedJobsPerBatch {
		batch := jobs[i-closedJobsPerBatch : i]
		batchS = append(batchS, float64(batch[len(batch)-1].job.EndedNS-batch[0].sent.UnixNano())/1e9)
		jobMS = append(jobMS, median(jobSeconds(batch))*1e3)
	}
	r.setTiming("latency_p50_ms", jobMS)
	r.setTiming("batch_s", batchS)
	r.setMedian("stored_bytes_per_raw_byte", ratios)
	return r.serveGates(ctx, g, a)
}

// serveGates checks, after the drain, that every 10th open-loop job's
// persisted report equals — canonically — a direct shard.Run of the same
// plan on the same workers.
func (r *run) serveGates(ctx context.Context, g *rig, a *phaseA) error {
	for i := 0; i < len(a.fired); i += 10 {
		f := a.fired[i]
		if f.Err != nil || a.jobs[f.ID].Status != serve.StatusDone {
			continue // already booked as failed
		}
		var raw []byte
		if err := g.call(ctx, "GET", "/api/jobs/"+f.ID+"/report", "", nil, http.StatusOK, &raw); err != nil {
			r.check(false, "job %s report: %v", f.ID, err)
			continue
		}
		var sum vcd.ReportSummary
		if err := json.Unmarshal(raw, &sum); err != nil {
			r.check(false, "job %s report does not parse: %v", f.ID, err)
			continue
		}
		got, err := vcd.MarshalReport(sum.Canonical())
		if err != nil {
			return err
		}
		want, _, err := g.directCanonical(ctx, a.sched[i].Job)
		if err != nil {
			return fmt.Errorf("direct run of job %d: %w", i, err)
		}
		if r.cfg.corrupt {
			want = "corrupt" + want
		}
		r.check(string(got) == want, "job %s report differs from a direct shard.Run of its plan", f.ID)
	}
	return nil
}

// countingTransport wraps a shard transport and counts the bytes that
// cross it in either direction.
type countingTransport struct {
	shard.Transport
	bytes atomic.Int64
}

func (t *countingTransport) Connect(ctx context.Context, i int) (net.Conn, error) {
	c, err := t.Transport.Connect(ctx, i)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &t.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// traceServe is the traced pass of serve_openloop: the same two phases
// with spans around the HTTP calls and the daemon's own job timestamps
// turned into spans, then the shard plane alone.
func traceServe(ctx context.Context, r *run, g *rig, sets []*dataset) error {
	horizon := time.Duration(openLoopShareTraced * r.cfg.seconds * float64(time.Second))
	if r.cfg.smoke {
		horizon = 2 * time.Second
	}
	a, err := r.openLoop(ctx, g, horizon, len(sets))
	if err != nil {
		return err
	}
	var waitMS, runMS, lateMS []float64
	ns := func(t int64) time.Time { return time.Unix(0, t) }
	for i, f := range a.fired {
		lateMS = append(lateMS, f.Sent.Sub(f.Due).Seconds()*1e3)
		j := a.jobs[f.ID]
		if f.Err != nil || j.Status != serve.StatusDone {
			continue
		}
		job := r.tr.add("serve.job", 0, i, f.Due, ns(j.EndedNS))
		r.tr.add("serve.queue_wait", job, i, ns(j.SubmittedNS), ns(j.StartedNS))
		r.tr.add("serve.run", job, i, ns(j.StartedNS), ns(j.EndedNS))
		waitMS = append(waitMS, float64(j.StartedNS-j.SubmittedNS)/1e6)
		runMS = append(runMS, float64(j.EndedNS-j.StartedNS)/1e6)
	}
	r.setMedian("serve.submit_p50_ms", r.tr.totals().of("serve.submit").Durs)
	r.setMedian("serve.queue_wait_p50_ms", waitMS)
	r.setMedian("serve.run_p50_ms", runMS)
	r.setMedian("serve.job_p50_ms", a.latency)
	if supports(len(a.latency), 75) {
		r.setPercentile("serve.queue_wait_p75_ms", waitMS, 75)
		r.setPercentile("serve.job_p75_ms", a.latency, 75)
		r.setPercentile("serve.gen_late_p75_ms", lateMS, 75)
	}
	r.set("serve.refused", float64(g.refused.Load()))

	// Phase B, and the same job bodies straight through shard.Run.
	alloc0, tB := allocBytes(), time.Now()
	r.budget(0.15)
	jobs, err := r.closedLoop(ctx, g, len(sets))
	if err != nil {
		return err
	}
	wallB := time.Since(tB).Seconds()
	if len(jobs) > 0 {
		r.set("serve.jobs_per_s", float64(len(jobs))/wallB)
		r.set("serve.alloc_mb_per_job", float64(allocBytes()-alloc0)/1e6/float64(len(jobs)))
		var directMS []float64
		for i, j := range jobs {
			span := r.tr.add("serve.job_closed", 0, i, j.sent, ns(j.job.EndedNS))
			r.tr.add("serve.run", span, i, ns(j.job.StartedNS), ns(j.job.EndedNS))
			_, wall, err := g.directCanonical(ctx, j.body)
			if err != nil {
				return err
			}
			directMS = append(directMS, wall.Seconds()*1e3)
		}
		r.set("serve.overhead_ms", median(jobSeconds(jobs))*1e3-median(directMS))
	}
	entries, err := os.ReadDir(filepath.Join(g.dataDir, "jobs"))
	if err != nil {
		return err
	}
	var journal int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			journal += info.Size()
		}
	}
	r.set("serve.journal_bytes_per_job", ratio(float64(journal), float64(len(entries))))

	// The shard plane alone, on the qmix plan: one process, one in-process
	// pipe worker, the two TCP workers.
	d := sets[0]
	w := queryWorkloads["qmix"]
	var overhead, pipeS, tcpS []float64
	var retried int64
	tcp := &countingTransport{Transport: &shard.AddrTransport{Addrs: g.addrs}}
	sys := newEngine(w.engine)
	r.budget(0.35)
	for i := 0; r.timed(i); i++ {
		o := w.plan(r.cfg.seed, fmt.Sprint(i))
		rep, single, err := timeRun(d, sys, o)
		if err != nil {
			return err
		}
		want, err := canonical(rep)
		if err != nil {
			return err
		}
		plan := shard.Plan{Dataset: shard.DatasetSpec{Path: g.paths[datasetName(0)]}, Store: d.store, System: shard.SystemSpec{Name: w.engine}, Scale: dsScale, Opt: o}
		for _, topo := range []struct {
			name string
			copt shard.Options
			into *[]float64
		}{
			{"shard.pipe1", shard.Options{Shards: 1, Worker: shard.WorkerOptions{Store: d.store, InProcess: true}}, &pipeS},
			{"shard.tcp2", shard.Options{Shards: len(g.addrs), Transport: tcp}, &tcpS},
		} {
			sp := r.tr.start(topo.name, 0, i)
			t0 := time.Now()
			rep, counters, err := shard.Run(ctx, plan, topo.copt)
			wall := time.Since(t0)
			r.tr.end(sp, work{Count: 1})
			if err != nil {
				return fmt.Errorf("%s: %w", topo.name, err)
			}
			got, err := canonical(rep)
			r.check(err == nil && got == want, "%s report differs from vcd.Run of the same plan", topo.name)
			*topo.into = append(*topo.into, wall.Seconds())
			retried += counters.RetriedInstances
		}
		// Paired per plan, so that plan-to-plan variation cancels.
		overhead = append(overhead, ratio(pipeS[len(pipeS)-1], single.Seconds())-1)
	}
	r.set("shard.pipe1_batch_ms", median(pipeS)*1e3)
	r.set("shard.tcp2_batch_ms", median(tcpS)*1e3)
	r.setMedian("shard.overhead_frac", overhead)
	r.set("shard.wire_bytes_per_job", float64(tcp.bytes.Load())/float64(len(tcpS)))
	r.set("shard.retried_instances", float64(retried))
	// An open loop cannot be replayed with the recorder off, so here the
	// recorder is priced directly: the spans recorded, at the measured cost
	// of recording one, over the time they were recorded in.
	r.set("bench.trace_overhead_frac", ratio(float64(len(r.tr.spans))*spanCost().Seconds(), time.Since(r.tr.epoch).Seconds()))
	return r.serveGates(ctx, g, a)
}
