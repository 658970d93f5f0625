package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/vcd"
)

var updateGolden = flag.Bool("update", false, "rewrite the goldens: testdata/artifact.keys and testdata/*.flags")

// strictDecode decodes data into v and fails on a key v does not have.
func strictDecode(t *testing.T, what string, data []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// keysOf lists a JSON object's keys, sorted.
func keysOf(t *testing.T, data []byte) string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(data, &obj); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// jobReport runs one job on an in-process daemon (metrics on, two
// in-process shard workers) and returns the persisted report's bytes.
func jobReport(t *testing.T, dataset string) []byte {
	t.Helper()
	metrics.SetEnabled(true)
	defer metrics.SetEnabled(false)
	s, err := serve.New(serve.Options{DataDir: t.TempDir(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)
	call := func(method, path, body string, want int) []byte {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rr.Code != want {
			t.Fatalf("%s %s = %d: %s", method, path, rr.Code, rr.Body)
		}
		return rr.Body.Bytes()
	}
	call("POST", "/api/datasets", fmt.Sprintf(`{"name":"d","path":%q}`, dataset), http.StatusCreated)
	var job serve.Job
	if err := json.Unmarshal(call("POST", "/api/jobs", `{"dataset":"d","queries":["Q1","Q5"],"instances":1,"seed":3}`, http.StatusAccepted), &job); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); job.Status != serve.StatusDone; time.Sleep(10 * time.Millisecond) {
		if job.Status.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job is %s (%s), want done", job.Status, job.Err)
		}
		if err := json.Unmarshal(call("GET", "/api/jobs/"+job.ID, "", http.StatusOK), &job); err != nil {
			t.Fatal(err)
		}
	}
	return call("GET", "/api/jobs/"+job.ID+"/report", "", http.StatusOK)
}

// TestOneReportSchema: every file a run's result is written to is one
// type. The three -metrics-json writers produce a vcd.Artifact whose
// runs are vcd.ReportSummary values, a vrserved job report is a
// vcd.ReportSummary, and a strict decoder (unknown keys fail) reads all
// of them. The key sets are pinned in testdata/artifact.keys
// (regenerate on purpose with -update).
func TestOneReportSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every binary")
	}
	bin, work := binDir(t), t.TempDir()
	run := func(name string, args ...string) {
		t.Helper()
		if out, err := exec.Command(filepath.Join(bin, name), args...).CombinedOutput(); err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
		}
	}
	dataset := filepath.Join(work, "ds")
	run("vcg", "-out", dataset, "-scale", "1", "-res", "96x64", "-duration", "0.5", "-fps", "16", "-seed", "9")

	var golden strings.Builder
	for _, w := range []struct {
		name string
		bin  string
		args []string
		runs int // summaries the artifact must hold
	}{
		{"vcd -metrics-json", "vcd", []string{"-data", dataset, "-queries", "Q1,Q5", "-instances", "1"}, 1},
		{"vcd -shard-workers 2 -metrics-json", "vcd", []string{"-data", dataset, "-queries", "Q1,Q5", "-instances", "1", "-shard-workers", "2"}, 1},
		{"vcd -online -metrics-json", "vcd", []string{"-data", dataset, "-queries", "Q1", "-instances", "1", "-online"}, 1},
		{"vrbench -exp fig5 -metrics-json", "vrbench", []string{"-exp", "fig5", "-scale", "1", "-duration", "0.3"}, 3},
	} {
		path := filepath.Join(work, "artifact.json")
		run(w.bin, append(w.args, "-metrics-json", path)...)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var art vcd.Artifact
		strictDecode(t, w.name, data, &art)
		if len(art.Runs) != w.runs {
			t.Errorf("%s: %d runs, want %d", w.name, len(art.Runs), w.runs)
		}
		fmt.Fprintf(&golden, "%s: %s\n", w.name, keysOf(t, data))
		for i, r := range art.Runs {
			if r.Telemetry == nil || r.Trace == nil || len(r.Queries) == 0 || r.Queries[0].Telemetry == nil {
				t.Errorf("%s: run %d (%s) lacks its observability record", w.name, i, r.System)
			}
		}
		if len(art.Runs) > 0 {
			one, _ := json.Marshal(art.Runs[0])
			fmt.Fprintf(&golden, "%s: runs[0]: %s\n", w.name, keysOf(t, one))
		}
	}
	report := jobReport(t, dataset)
	var sum vcd.ReportSummary
	strictDecode(t, "job report", report, &sum)
	if sum.Trace == nil || sum.Trace.Instances != 2 || len(sum.Events) == 0 {
		t.Errorf("job report: trace %+v, %d events; want its 2 instances and its events", sum.Trace, len(sum.Events))
	}
	fmt.Fprintf(&golden, "vrserved job report: %s\n", keysOf(t, report))

	goldenPath := filepath.Join("testdata", "artifact.keys")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if golden.String() != string(want) {
		t.Errorf("report key sets changed (regenerate on purpose with -update):\n--- got\n%s--- want\n%s", golden.String(), want)
	}
}
