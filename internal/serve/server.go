// Package serve implements the benchmark-as-a-service control plane: a
// long-running admin API (register datasets, submit query batches as
// first-class jobs, list/get/cancel jobs, fetch persisted reports)
// whose execution plane is the existing shard coordinator/worker
// scatter–gather — jobs run through shard.Run against a pool of
// `vcd -shard-worker` processes, or against in-process pipe workers in
// single-node mode. The control plane adds what a one-shot CLI never
// needed: per-tenant admission control (bounded queue plus a
// concurrency limit, over-limit submissions rejected with 429), a
// journal of submitted jobs that survives daemon restarts, and reports
// persisted atomically to the data dir. The /debug ops surface
// (metrics, events, prom, pprof) mounts on the same listener.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/vcd"
	"repro/internal/vfs"
)

// DefaultTenant is the tenant jobs without an X-Tenant header bill to.
const DefaultTenant = "default"

// RunnerFunc executes one job's plan — shard.Run in production,
// overridable so tests and the submit benchmark can isolate the
// control plane from the execution plane.
type RunnerFunc func(ctx context.Context, plan shard.Plan, copt shard.Options) (*vcd.RunReport, *shard.Counters, error)

// Options configure the daemon.
type Options struct {
	// DataDir is the persistence root: job journal, reports, dataset
	// registry. Required.
	DataDir string
	// WorkerAddrs lists the TCP shard-worker pool (`vcd -shard-worker`
	// processes). The pool outlives jobs: every job's coordinator dials
	// the same addresses, and worker processes serve conversation after
	// conversation. Empty selects single-node mode — each job spawns
	// in-process pipe workers instead.
	WorkerAddrs []string
	// Shards is the in-process worker count per job in single-node mode
	// (a job's request may override it). Ignored with WorkerAddrs.
	Shards int
	// Heartbeat is the shard plane's liveness window (0 selects
	// shard.DefaultHeartbeat).
	Heartbeat time.Duration
	// MaxQueued bounds the job queue; submissions beyond it are
	// rejected with 429. 0 selects 64.
	MaxQueued int
	// TenantLimit caps one tenant's queued-plus-running jobs;
	// submissions beyond it are rejected with 429. 0 selects 4.
	TenantLimit int
	// Concurrency is how many jobs execute at once. The default 1
	// matches a serial TCP worker pool (workers serve one conversation
	// at a time, so concurrent jobs would only queue at accept).
	Concurrency int
	// Runner overrides the execution plane (tests, benchmarks). Nil
	// selects shard.Run.
	Runner RunnerFunc
	// Logf receives operational log lines (nil discards).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxQueued <= 0 {
		o.MaxQueued = 64
	}
	if o.TenantLimit <= 0 {
		o.TenantLimit = 4
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 1
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = shard.DefaultHeartbeat
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Runner == nil {
		o.Runner = shard.Run
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Server is the daemon: HTTP admin API over a journaled job store, an
// executor goroutine (Run) draining the bounded queue, and the shard
// execution plane underneath.
type Server struct {
	opt   Options
	store *fileStore
	adm   *admission
	mux   *http.ServeMux
	queue chan *Job

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	datasets map[string]*DatasetInfo
	cancels  map[string]context.CancelFunc
}

// New opens the data dir, replays the job journal (jobs interrupted by
// a previous daemon's death are marked failed — their workers are
// gone; unparsable entries are quarantined), loads the dataset
// registry, and returns a server ready for Handler + Run.
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	store, err := newFileStore(opt.DataDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opt:     opt,
		store:   store,
		adm:     newAdmission(opt.TenantLimit),
		queue:   make(chan *Job, opt.MaxQueued),
		jobs:    map[string]*Job{},
		cancels: map[string]context.CancelFunc{},
	}
	if s.datasets, err = store.loadDatasets(); err != nil {
		return nil, err
	}
	jobs, quarantined, err := store.loadJobs()
	if err != nil {
		return nil, err
	}
	for _, name := range quarantined {
		metrics.RecordEvent(metrics.Event{Kind: metrics.EventServeJobQuarantined, Shard: -1, Detail: name})
		opt.Logf("serve: corrupt job journal %s quarantined as %s.corrupt", name, name)
	}
	for _, j := range jobs {
		if !j.Status.Terminal() {
			j.Status = StatusFailed
			j.Err = "interrupted by daemon restart"
			if j.EndedNS == 0 {
				j.EndedNS = time.Now().UnixNano()
			}
			if err := store.saveJob(j); err != nil {
				return nil, err
			}
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	}
	s.mux = s.buildMux()
	return s, nil
}

// Handler returns the admin API plus the /debug ops surface.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/datasets", s.handleRegisterDataset)
	mux.HandleFunc("GET /api/datasets", s.handleListDatasets)
	mux.HandleFunc("POST /api/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/jobs", s.handleListJobs)
	mux.HandleFunc("GET /api/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("POST /api/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /api/jobs/{id}/report", s.handleReport)
	// The same ops surface the one-shot CLIs expose with -debug-addr,
	// mounted on the daemon's own listener: observable on day one.
	mux.Handle("/debug/", metrics.NewDebugMux())
	return mux
}

// Run is the executor: it drains the queue into at most Concurrency
// concurrent shard runs until ctx ends, then waits for running jobs to
// settle. Jobs still queued at shutdown stay journaled as queued; the
// next daemon boot reports them failed ("interrupted").
func (s *Server) Run(ctx context.Context) error {
	sem := make(chan struct{}, s.opt.Concurrency)
	var wg sync.WaitGroup
	for {
		// Take an execution slot before touching the queue: a job popped
		// early would stop counting against the bounded queue while it
		// waited for a slot, quietly growing capacity by one.
		select {
		case <-ctx.Done():
			wg.Wait()
			return ctx.Err()
		case sem <- struct{}{}:
		}
		select {
		case <-ctx.Done():
			wg.Wait()
			return ctx.Err()
		case j := <-s.queue:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				s.runJob(ctx, j)
			}()
		}
	}
}

// runJob drives one job through running to its terminal state.
func (s *Server) runJob(ctx context.Context, j *Job) {
	s.mu.Lock()
	if j.Status != StatusQueued { // cancelled while queued
		s.mu.Unlock()
		return
	}
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	j.Status = StatusRunning
	j.StartedNS = time.Now().UnixNano()
	s.cancels[j.ID] = cancel
	s.persistLocked(j)
	s.mu.Unlock()
	metrics.RecordEvent(metrics.Event{Kind: metrics.EventServeJobStarted, Shard: -1, Detail: j.ID, Query: j.Tenant})
	s.opt.Logf("serve: job %s started (tenant %s, dataset %s, system %s)", j.ID, j.Tenant, j.Request.Dataset, j.Request.System)

	var report *vcd.RunReport
	var counters *shard.Counters
	plan, copt, err := s.buildPlan(j)
	if err == nil {
		report, counters, err = s.opt.Runner(jctx, plan, copt)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.cancels, j.ID)
	j.EndedNS = time.Now().UnixNano()
	j.Counters = counters
	event := metrics.EventServeJobDone
	switch {
	case err == nil:
		if perr := vcd.WriteReportFile(s.store.reportPath(j.ID), vcd.Summarize(report)); perr != nil {
			j.Status = StatusFailed
			j.Err = perr.Error()
			event = metrics.EventServeJobFailed
		} else {
			j.Status = StatusDone
		}
	case jctx.Err() != nil && (j.cancelRequested || ctx.Err() != nil):
		// The run stopped because its context died: a cancel request or
		// daemon shutdown, either way not the plan's fault.
		j.Status = StatusCancelled
		j.Err = err.Error()
		event = metrics.EventServeJobCancelled
	default:
		j.Status = StatusFailed
		j.Err = err.Error()
		event = metrics.EventServeJobFailed
	}
	s.adm.release(j.Tenant)
	s.persistLocked(j)
	metrics.RecordEvent(metrics.Event{Kind: event, Shard: -1, Detail: j.ID, Query: j.Tenant})
	s.opt.Logf("serve: job %s %s", j.ID, j.Status)
}

// buildPlan translates a job request into the shard plan and
// coordinator options its run executes with — the exact plan a
// `vcd -shard-addrs` run of the same request would build, so the two
// produce identical reports.
func (s *Server) buildPlan(j *Job) (shard.Plan, shard.Options, error) {
	s.mu.Lock()
	ds := s.datasets[j.Request.Dataset]
	s.mu.Unlock()
	if ds == nil {
		return shard.Plan{}, shard.Options{}, fmt.Errorf("serve: dataset %q not registered", j.Request.Dataset)
	}
	opt, err := j.Request.runOptions()
	if err != nil {
		return shard.Plan{}, shard.Options{}, err
	}
	plan := shard.Plan{
		Dataset: shard.DatasetSpec{Path: ds.Path},
		System:  shard.SystemSpec{Name: j.Request.System},
		Scale:   ds.Scale,
		Opt:     opt,
	}
	copt := shard.Options{Heartbeat: s.opt.Heartbeat}
	if len(s.opt.WorkerAddrs) > 0 {
		copt.Shards = len(s.opt.WorkerAddrs)
		copt.Transport = &shard.AddrTransport{Addrs: s.opt.WorkerAddrs}
	} else {
		copt.Shards = s.opt.Shards
		if j.Request.Shards > 0 {
			copt.Shards = j.Request.Shards
		}
		store, err := vfs.NewLocal(ds.Path)
		if err != nil {
			return shard.Plan{}, shard.Options{}, err
		}
		plan.Store = store
	}
	return plan, copt, nil
}

// persistLocked journals j; a persistence failure is logged, never
// fatal to the daemon (the in-memory state remains authoritative until
// the next successful write).
func (s *Server) persistLocked(j *Job) {
	if err := s.store.saveJob(j); err != nil {
		s.opt.Logf("serve: journaling job %s: %v", j.ID, err)
	}
}

// tenantOf resolves the submitting tenant from the request header.
func tenantOf(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get("X-Tenant")); t != "" {
		return t
	}
	return DefaultTenant
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds a request body. A JobRequest or a dataset
// registration is a few hundred bytes; the bound only keeps a client
// from making the daemon buffer an arbitrarily large one.
const maxBodyBytes = 1 << 20

// decodeBody decodes a JSON request body of at most maxBodyBytes into
// v. On failure it answers 413 (oversized) or 400 (malformed) itself
// and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	} else {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// handleRegisterDataset validates and registers a dataset directory:
// the manifest is loaded once here, so submissions and plans know the
// scale without touching the filesystem again.
func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
		Path string `json:"path"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" || req.Path == "" {
		writeErr(w, http.StatusBadRequest, "name and path are required")
		return
	}
	// Refuse a conflicting name before touching the path: the conflict
	// is decisive whether or not the new path even exists.
	s.mu.Lock()
	prev, exists := s.datasets[req.Name]
	s.mu.Unlock()
	if exists && prev.Path != req.Path {
		writeErr(w, http.StatusConflict, "dataset %q already registered at %s", req.Name, prev.Path)
		return
	}
	store, err := vfs.NewLocal(req.Path)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "opening dataset: %v", err)
		return
	}
	ds, err := vcd.LoadDataset(store, detect.ProfileSynthetic)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "loading dataset: %v", err)
		return
	}
	info := &DatasetInfo{
		Name:     req.Name,
		Path:     req.Path,
		Scale:    ds.Manifest.Scale,
		Width:    ds.Manifest.Width,
		Height:   ds.Manifest.Height,
		Duration: ds.Manifest.Duration,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.datasets[req.Name]; ok && prev.Path != req.Path {
		writeErr(w, http.StatusConflict, "dataset %q already registered at %s", req.Name, prev.Path)
		return
	}
	s.datasets[req.Name] = info
	if err := s.store.saveDatasets(s.datasets); err != nil {
		writeErr(w, http.StatusInternalServerError, "persisting registry: %v", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.datasets))
	for name := range s.datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	list := make([]*DatasetInfo, 0, len(names))
	for _, name := range names {
		list = append(list, s.datasets[name])
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Datasets []*DatasetInfo `json:"datasets"`
	}{list})
}

// handleSubmit admits, journals, and enqueues one job. Admission
// happens before the job exists: an over-limit tenant or a full queue
// is answered 429, and an oversized body 413, without perturbing
// anything already running.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	tenant := tenantOf(r)
	if req.System == "" {
		req.System = "lightdblike"
	}
	if req.Instances <= 0 {
		req.Instances = 4
	}
	if _, err := shard.NewSystem(shard.SystemSpec{Name: req.System}); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := req.runOptions(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	_, ok := s.datasets[req.Dataset]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusBadRequest, "dataset %q not registered", req.Dataset)
		return
	}
	if err := s.adm.admit(tenant); err != nil {
		metrics.RecordEvent(metrics.Event{Kind: metrics.EventServeJobRejected, Shard: -1, Query: tenant, Detail: err.Error()})
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	id, err := newJobID()
	if err != nil {
		s.adm.release(tenant)
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	j := &Job{
		ID:          id,
		Tenant:      tenant,
		Status:      StatusQueued,
		Request:     req,
		SubmittedNS: time.Now().UnixNano(),
	}
	select {
	case s.queue <- j:
	default:
		s.adm.release(tenant)
		metrics.RecordEvent(metrics.Event{Kind: metrics.EventServeJobRejected, Shard: -1, Query: tenant, Detail: ErrQueueFull.Error()})
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "%v", ErrQueueFull)
		return
	}
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.persistLocked(j)
	snap := *j
	s.mu.Unlock()
	metrics.RecordEvent(metrics.Event{Kind: metrics.EventServeJobQueued, Shard: -1, Detail: j.ID, Query: tenant})
	w.Header().Set("Location", "/api/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, snap)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	s.mu.Lock()
	list := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if tenant != "" && j.Tenant != tenant {
			continue
		}
		list = append(list, *j)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Jobs []Job `json:"jobs"`
	}{list})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var snap Job
	if ok {
		snap = *j
	}
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleCancel cancels a job: queued jobs transition immediately,
// running jobs get their context cancelled — the same context plumbing
// that threads through the coordinator's gather loop, so the run
// returns promptly and the worker pool is free for the next job.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	switch j.Status {
	case StatusQueued:
		j.Status = StatusCancelled
		j.EndedNS = time.Now().UnixNano()
		s.adm.release(j.Tenant)
		s.persistLocked(j)
		metrics.RecordEvent(metrics.Event{Kind: metrics.EventServeJobCancelled, Shard: -1, Detail: j.ID, Query: j.Tenant})
	case StatusRunning:
		j.cancelRequested = true
		if cancel := s.cancels[j.ID]; cancel != nil {
			cancel()
		}
	}
	snap := *j
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, snap)
}

// handleReport serves the persisted report bytes for a finished job.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var status Status
	if ok {
		status = j.Status
	}
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	if status != StatusDone {
		writeErr(w, http.StatusConflict, "job is %s; no report", status)
		return
	}
	data, err := os.ReadFile(s.store.reportPath(id))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "reading report: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}
