package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/shard"
	"repro/internal/vcd"
	"repro/internal/vcg"
	"repro/internal/vcity"
	"repro/internal/vfs"
)

// The benchmark dataset every test shares: generated once per binary
// onto disk, because the daemon and its worker processes rendezvous on
// a real path.
var (
	dsOnce sync.Once
	dsDir  string
	dsErr  error
)

func datasetDir(t *testing.T) string {
	t.Helper()
	dsOnce.Do(func() {
		dsDir, dsErr = os.MkdirTemp("", "serve-dataset-")
		if dsErr != nil {
			return
		}
		var store vfs.Store
		if store, dsErr = vfs.NewLocal(dsDir); dsErr != nil {
			return
		}
		_, dsErr = vcg.Generate(vcity.Hyperparams{
			Scale: 1, Width: 128, Height: 96, Duration: 1.0, FPS: 15, Seed: 7,
		}, vcg.Options{Captions: true, QP: 18}, store)
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsDir
}

// startPool starts n TCP shard workers (the long-lived pool) and
// returns their addresses.
func startPool(t *testing.T, ctx context.Context, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv, err := shard.ListenWorker("127.0.0.1:0", shard.WorkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ctx)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs
}

// stubReport is a minimal successful run for stub runners.
func stubReport() *vcd.RunReport {
	return &vcd.RunReport{System: "stub", Scale: 1}
}

func postJSON(t *testing.T, h http.Handler, path string, body any, tenant string) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(data))
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func getJSON(t *testing.T, h http.Handler, path string, out any) int {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	if out != nil && rr.Code == http.StatusOK {
		if err := json.Unmarshal(rr.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return rr.Code
}

// submit posts a job and returns its ID, failing unless the daemon
// answers 202.
func submit(t *testing.T, h http.Handler, req JobRequest, tenant string) string {
	t.Helper()
	rr := postJSON(t, h, "/api/jobs", req, tenant)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rr.Code, rr.Body)
	}
	var j Job
	if err := json.Unmarshal(rr.Body.Bytes(), &j); err != nil {
		t.Fatal(err)
	}
	return j.ID
}

// waitStatus polls a job until it reaches a terminal state (or the
// wanted one) and returns the final snapshot.
func waitStatus(t *testing.T, h http.Handler, id string, want Status) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var j Job
		if code := getJSON(t, h, "/api/jobs/"+id, &j); code != http.StatusOK {
			t.Fatalf("GET job %s = %d", id, code)
		}
		if j.Status == want || j.Status.Terminal() {
			if j.Status != want {
				t.Fatalf("job %s reached %s (%s), want %s", id, j.Status, j.Err, want)
			}
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, j.Status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// registerDataset injects a registered dataset directly (tests that
// don't exercise the registration endpoint).
func registerDataset(s *Server, name, path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.datasets[name] = &DatasetInfo{Name: name, Path: path, Scale: 1, Width: 128, Height: 96, Duration: 1}
}

// TestServeEndToEnd is the tentpole's acceptance test: a daemon backed
// by a TCP worker pool serves register → submit → poll → report, and
// the persisted report is byte-identical (canonical form) to a direct
// `vcd -shard-addrs`-style run of the same plan against the same pool
// — which also proves the pool outlives the daemon's job.
func TestServeEndToEnd(t *testing.T) {
	data := datasetDir(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrs := startPool(t, ctx, 2)

	s, err := New(Options{DataDir: t.TempDir(), WorkerAddrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	go s.Run(ctx)
	h := s.Handler()

	// Register through the API: the daemon loads the manifest itself.
	rr := postJSON(t, h, "/api/datasets", map[string]string{"name": "vr", "path": data}, "")
	if rr.Code != http.StatusCreated {
		t.Fatalf("register = %d: %s", rr.Code, rr.Body)
	}
	var info DatasetInfo
	if err := json.Unmarshal(rr.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Scale != 1 || info.Width != 128 {
		t.Fatalf("registered manifest = %+v", info)
	}
	// Conflicting re-registration is refused; idempotent one is not.
	if rr := postJSON(t, h, "/api/datasets", map[string]string{"name": "vr", "path": "/elsewhere"}, ""); rr.Code != http.StatusConflict {
		t.Fatalf("conflicting re-register = %d", rr.Code)
	}
	if rr := postJSON(t, h, "/api/datasets", map[string]string{"name": "vr", "path": data}, ""); rr.Code != http.StatusCreated {
		t.Fatalf("idempotent re-register = %d", rr.Code)
	}

	req := JobRequest{Dataset: "vr", System: "scannerlike", Queries: []string{"Q1", "Q5"}, Seed: 42, Instances: 2, Validate: true}
	id := submit(t, h, req, "acme")
	job := waitStatus(t, h, id, StatusDone)
	if job.Tenant != "acme" || job.Counters == nil || job.Counters.Workers != 2 {
		t.Fatalf("done job = %+v (counters %+v)", job, job.Counters)
	}

	// Fetch the persisted report through the API.
	rrep := httptest.NewRecorder()
	h.ServeHTTP(rrep, httptest.NewRequest("GET", "/api/jobs/"+id+"/report", nil))
	if rrep.Code != http.StatusOK {
		t.Fatalf("report = %d: %s", rrep.Code, rrep.Body)
	}
	var got vcd.ReportSummary
	if err := json.Unmarshal(rrep.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}

	// The oracle: the same plan run directly through the shard plane
	// against the same (reused) worker pool.
	store, err := vfs.NewLocal(data)
	if err != nil {
		t.Fatal(err)
	}
	report, _, err := shard.Run(ctx, shard.Plan{
		Dataset: shard.DatasetSpec{Path: data},
		Store:   store,
		System:  shard.SystemSpec{Name: "scannerlike"},
		Scale:   1,
		Opt: vcd.Options{
			Queries:           mustParse(t, req.Queries),
			InstancesPerScale: 2,
			Seed:              42,
			Validate:          true,
			MaxUpsamplePixels: vcd.UpsampleCapCLI,
			Mode:              vcd.StreamingMode,
		},
	}, shard.Options{
		Shards:    len(addrs),
		Transport: &shard.AddrTransport{Addrs: addrs},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := vcd.MarshalReport(vcd.Summarize(report).Canonical())
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := vcd.MarshalReport(got.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Errorf("daemon report diverges from direct run:\n--- daemon ---\n%s\n--- direct ---\n%s", gotBytes, wantBytes)
	}

	// The job survives in the listing.
	var list struct{ Jobs []Job }
	if code := getJSON(t, h, "/api/jobs?tenant=acme", &list); code != http.StatusOK || len(list.Jobs) != 1 {
		t.Fatalf("job listing = %d, %d jobs", code, len(list.Jobs))
	}
}

func mustParse(t *testing.T, names []string) []queries.QueryID {
	t.Helper()
	qs, err := queries.ParseList(strings.Join(names, ","))
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// TestServeCancellation pins prompt cancellation: a running job's
// cancel endpoint cancels its context, the job lands in cancelled (not
// failed), and the daemon immediately runs the next job.
func TestServeCancellation(t *testing.T) {
	started := make(chan struct{}, 4)
	blockErr := make(chan struct{})
	var first sync.Once
	runner := func(ctx context.Context, plan shard.Plan, copt shard.Options) (*vcd.RunReport, *shard.Counters, error) {
		started <- struct{}{}
		var blocked bool
		first.Do(func() { blocked = true })
		if blocked {
			select {
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			case <-blockErr:
				return nil, nil, fmt.Errorf("unblocked without cancel")
			}
		}
		return stubReport(), &shard.Counters{Workers: 1}, nil
	}
	s, err := New(Options{DataDir: t.TempDir(), Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	registerDataset(s, "d", datasetDir(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)
	h := s.Handler()

	id := submit(t, h, JobRequest{Dataset: "d"}, "")
	<-started
	waitStatus(t, h, id, StatusRunning)

	rr := postJSON(t, h, "/api/jobs/"+id+"/cancel", nil, "")
	if rr.Code != http.StatusOK {
		t.Fatalf("cancel = %d: %s", rr.Code, rr.Body)
	}
	j := waitStatus(t, h, id, StatusCancelled)
	if j.Err == "" {
		t.Error("cancelled job carries no error detail")
	}
	// No report for a cancelled job.
	if code := getJSON(t, h, "/api/jobs/"+id+"/report", nil); code != http.StatusConflict {
		t.Errorf("report of cancelled job = %d, want 409", code)
	}

	// The daemon is immediately reusable.
	id2 := submit(t, h, JobRequest{Dataset: "d"}, "")
	<-started
	waitStatus(t, h, id2, StatusDone)

	// Cancelling a terminal job is a no-op.
	if rr := postJSON(t, h, "/api/jobs/"+id2+"/cancel", nil, ""); rr.Code != http.StatusOK {
		t.Fatalf("cancel done job = %d", rr.Code)
	}
	if j := waitStatus(t, h, id2, StatusDone); j.Status != StatusDone {
		t.Errorf("done job transitioned to %s on late cancel", j.Status)
	}
}

// TestServeAdmission pins the multi-tenant contract: an over-limit
// tenant and a full queue each get 429, and neither rejection perturbs
// the running job or other tenants.
func TestServeAdmission(t *testing.T) {
	running := make(chan string, 8)
	release := make(chan struct{})
	runner := func(ctx context.Context, plan shard.Plan, copt shard.Options) (*vcd.RunReport, *shard.Counters, error) {
		running <- ""
		select {
		case <-release:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
		return stubReport(), nil, nil
	}
	s, err := New(Options{
		DataDir: t.TempDir(), Runner: runner,
		TenantLimit: 1, MaxQueued: 1, Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	registerDataset(s, "d", datasetDir(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)
	h := s.Handler()

	// A runs (popped off the queue), holding tenant t1's only slot.
	idA := submit(t, h, JobRequest{Dataset: "d"}, "t1")
	<-running

	// t1 is at its limit: rejected, with a Retry-After hint.
	rr := postJSON(t, h, "/api/jobs", JobRequest{Dataset: "d"}, "t1")
	if rr.Code != http.StatusTooManyRequests || !strings.Contains(rr.Body.String(), "tenant") {
		t.Fatalf("over-limit tenant = %d: %s", rr.Code, rr.Body)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}

	// Another tenant still gets in (fills the 1-slot queue)...
	idC := submit(t, h, JobRequest{Dataset: "d"}, "t2")
	// ...and the next submission finds the queue full.
	if rr := postJSON(t, h, "/api/jobs", JobRequest{Dataset: "d"}, "t3"); rr.Code != http.StatusTooManyRequests ||
		!strings.Contains(rr.Body.String(), "queue") {
		t.Fatalf("full queue = %d: %s", rr.Code, rr.Body)
	}

	// The rejections perturbed nothing: A is still running, and after
	// release both admitted jobs finish.
	var a Job
	getJSON(t, h, "/api/jobs/"+idA, &a)
	if a.Status != StatusRunning {
		t.Fatalf("running job perturbed: %s", a.Status)
	}
	close(release)
	waitStatus(t, h, idA, StatusDone)
	<-running
	waitStatus(t, h, idC, StatusDone)

	// With its slot released, t1 may submit again.
	idA2 := submit(t, h, JobRequest{Dataset: "d"}, "t1")
	<-running
	waitStatus(t, h, idA2, StatusDone)
}

// TestServeRestartRecovery pins the journal contract: jobs survive a
// daemon restart in the listing, and a job that was non-terminal when
// the daemon died surfaces as failed rather than silently running.
func TestServeRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	registerDataset(s1, "d", datasetDir(t))
	// No executor: the job stays queued in the journal — the moral
	// equivalent of the daemon dying mid-flight.
	id := submit(t, s1.Handler(), JobRequest{Dataset: "d"}, "t1")

	s2, err := New(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var j Job
	if code := getJSON(t, s2.Handler(), "/api/jobs/"+id, &j); code != http.StatusOK {
		t.Fatalf("job lost across restart: %d", code)
	}
	if j.Status != StatusFailed || !strings.Contains(j.Err, "interrupted") {
		t.Fatalf("recovered job = %s (%q), want failed/interrupted", j.Status, j.Err)
	}
}

// TestServeBootQuarantinesCorruptJournal pins the journal's fault
// contract: one unparsable entry under jobs/ is set aside (renamed to
// <name>.corrupt, journaled as an event) and the daemon comes up with
// every other job listed, while errors reading the journal — as opposed
// to parsing it — still abort boot.
func TestServeBootQuarantinesCorruptJournal(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	registerDataset(s1, "d", datasetDir(t))
	id := submit(t, s1.Handler(), JobRequest{Dataset: "d"}, "t1")

	// A torn write: the neighbour's journal entry cut off mid-object,
	// under a second job's name.
	good, err := os.ReadFile(s1.store.jobPath(id))
	if err != nil {
		t.Fatal(err)
	}
	torn := s1.store.jobPath("jtorn")
	if err := os.WriteFile(torn, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	metrics.SetEnabled(true)
	t.Cleanup(func() { metrics.SetEnabled(false) })
	since := metrics.EventSeq()
	s2, err := New(Options{DataDir: dir})
	if err != nil {
		t.Fatalf("daemon did not boot over a corrupt journal entry: %v", err)
	}
	var list struct{ Jobs []Job }
	if code := getJSON(t, s2.Handler(), "/api/jobs", &list); code != http.StatusOK {
		t.Fatalf("GET /api/jobs = %d", code)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != id {
		t.Fatalf("job list after quarantine = %+v, want only %s", list.Jobs, id)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Errorf("corrupt entry still in place (stat err %v)", err)
	}
	if data, err := os.ReadFile(torn + ".corrupt"); err != nil || !bytes.Equal(data, good[:len(good)/2]) {
		t.Errorf("quarantined copy missing or altered: %v", err)
	}
	var quarantined int
	evs, _ := metrics.EventsSince(since)
	for _, e := range evs {
		if e.Kind == metrics.EventServeJobQuarantined && e.Detail == "jtorn.json" {
			quarantined++
		}
	}
	if quarantined != 1 {
		t.Errorf("%d serve_job_quarantined events for jtorn.json, want 1", quarantined)
	}

	// The quarantined file no longer trips boot, and is not quarantined
	// twice.
	since = metrics.EventSeq()
	if _, err := New(Options{DataDir: dir}); err != nil {
		t.Fatalf("boot after quarantine: %v", err)
	}
	evs, _ = metrics.EventsSince(since)
	for _, e := range evs {
		if e.Kind == metrics.EventServeJobQuarantined {
			t.Errorf("clean boot recorded a quarantine: %+v", e)
		}
	}

	// An entry that cannot be read at all is not a parse problem: fatal.
	if err := os.Symlink(dir+"/nowhere", s1.store.jobPath("jdangling")); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{DataDir: dir}); err == nil {
		t.Fatal("daemon booted over an unreadable journal entry")
	}
	os.Remove(s1.store.jobPath("jdangling"))
	// Neither is an unreadable journal directory.
	if err := os.RemoveAll(dir + "/jobs"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/jobs", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.store.loadJobs(); err == nil {
		t.Fatal("loadJobs read a journal directory that is not a directory")
	}
	if _, err := New(Options{DataDir: dir}); err == nil {
		t.Fatal("daemon booted without a readable journal directory")
	}
}

// TestServeSubmitValidation pins the submit-side input checks: bad
// dataset, system, and query names are 400s, not queued jobs — and so
// is a run size past shard.CheckLimits (a body asking for 100000
// in-process shard workers, each loading the dataset, or a 1e9·L batch,
// must not become a job), while the limits themselves are accepted.
func TestServeSubmitValidation(t *testing.T) {
	s, err := New(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	registerDataset(s, "d", datasetDir(t))
	h := s.Handler()
	cases := []struct {
		req  JobRequest
		want string
	}{
		{JobRequest{Dataset: "nope"}, "not registered"},
		{JobRequest{Dataset: "d", System: "oracle"}, "unknown system"},
		{JobRequest{Dataset: "d", Queries: []string{"Q99"}}, "unknown query"},
		{JobRequest{Dataset: "d", Instances: 1_000_000_000}, "instances per unit of scale exceeds"},
		{JobRequest{Dataset: "d", Workers: shard.MaxInstanceWorkers + 1}, "query workers exceeds"},
		{JobRequest{Dataset: "d", Shards: 100_000}, "shard workers exceeds"},
	}
	for _, c := range cases {
		rr := postJSON(t, h, "/api/jobs", c.req, "")
		if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), c.want) {
			t.Errorf("submit %+v = %d: %s (want 400 %q)", c.req, rr.Code, rr.Body, c.want)
		}
	}
	if code := getJSON(t, h, "/api/jobs/jdeadbeef", nil); code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", code)
	}
	// Nothing slipped into the journal.
	var list struct{ Jobs []Job }
	getJSON(t, h, "/api/jobs", &list)
	if len(list.Jobs) != 0 {
		t.Errorf("%d jobs journaled by rejected submissions", len(list.Jobs))
	}
	submit(t, h, JobRequest{
		Dataset: "d", Instances: shard.MaxInstancesPerScale, Workers: shard.MaxInstanceWorkers, Shards: shard.MaxShards,
	}, "")
}

// TestPlanMatchesCLI pins the "same plan as `vcd -shard-addrs`" claim
// (DESIGN.md §5.13) on the configuration itself, not only on output
// bytes: the CLI binder given vcd's flags and buildPlan given the
// equivalent submit body produce the same vcd.Options, for explicit
// values and for every default.
func TestPlanMatchesCLI(t *testing.T) {
	s, err := New(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	registerDataset(s, "d", datasetDir(t))
	for _, c := range []struct {
		args []string
		body JobRequest
	}{
		{
			[]string{"-queries", "Q1,Q5", "-seed", "42", "-instances", "2", "-validate", "-query-workers", "3"},
			JobRequest{Dataset: "d", Queries: []string{"Q1", "Q5"}, Seed: 42, Instances: 2, Validate: true, Workers: 3},
		},
		{nil, JobRequest{Dataset: "d"}},
	} {
		fs := flag.NewFlagSet("vcd", flag.ContinueOnError)
		run := cli.BindRun(fs, cli.Words{"queries": "", "instances": ""})
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		want, err := run.Options()
		if err != nil {
			t.Fatal(err)
		}
		// Through the API, so the body gets the defaults a submission gets.
		id := submit(t, s.Handler(), c.body, "")
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		plan, _, err := s.buildPlan(j)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan.Opt, want) {
			t.Errorf("vcd %v binds %+v, the equivalent job plans %+v", c.args, want, plan.Opt)
		}
	}
}

// TestServeSubmitBodyLimit pins the bound on both JSON bodies the API
// reads: an oversized request is a 413 with a JSON error and creates
// nothing — no dataset, no job — and the next, well-formed request on
// the same endpoint goes through (the tenant's only slot is still free).
func TestServeSubmitBodyLimit(t *testing.T) {
	s, err := New(Options{DataDir: t.TempDir(), TenantLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	pad := strings.Repeat("x", maxBodyBytes)
	data := datasetDir(t)

	for _, tc := range []struct {
		path, body string
		created    func() int
		wellFormed func()
	}{
		{"/api/datasets", `{"name":"` + pad + `","path":"` + data + `"}`,
			func() int {
				var list struct{ Datasets []DatasetInfo }
				getJSON(t, h, "/api/datasets", &list)
				return len(list.Datasets)
			},
			func() {
				if rr := postJSON(t, h, "/api/datasets", map[string]string{"name": "d", "path": data}, ""); rr.Code != http.StatusCreated {
					t.Fatalf("register after an oversized one = %d: %s", rr.Code, rr.Body)
				}
			}},
		{"/api/jobs", `{"dataset":"d","pad":"` + pad + `"}`,
			func() int {
				var list struct{ Jobs []Job }
				getJSON(t, h, "/api/jobs", &list)
				return len(list.Jobs)
			},
			func() { submit(t, h, JobRequest{Dataset: "d"}, "t1") }},
	} {
		req := httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body))
		req.Header.Set("X-Tenant", "t1")
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		var apiErr apiError
		if err := json.Unmarshal(rr.Body.Bytes(), &apiErr); err != nil || rr.Code != http.StatusRequestEntityTooLarge ||
			!strings.Contains(apiErr.Error, "exceeds") {
			t.Fatalf("oversized POST %s = %d: %s (want 413 with a JSON error)", tc.path, rr.Code, rr.Body)
		}
		if n := tc.created(); n != 0 {
			t.Errorf("oversized POST %s created %d records", tc.path, n)
		}
		tc.wellFormed()
	}
}

// TestServeDebugSurface pins that the ops endpoints ride the admin
// listener.
func TestServeDebugSurface(t *testing.T) {
	s, err := New(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/debug/metrics", "/debug/events", "/debug/prom"} {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != http.StatusOK {
			t.Errorf("GET %s = %d", path, rr.Code)
		}
	}
}
