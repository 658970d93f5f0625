package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/vcd"
)

// jobReport fetches a done job's persisted report and decodes it
// strictly: the file is a vcd.ReportSummary and nothing else.
func jobReport(t *testing.T, h http.Handler, id string) vcd.ReportSummary {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/api/jobs/"+id+"/report", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("report of %s = %d: %s", id, rr.Code, rr.Body)
	}
	var sum vcd.ReportSummary
	dec := json.NewDecoder(bytes.NewReader(rr.Body.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sum); err != nil {
		t.Fatalf("report of %s is not a ReportSummary: %v", id, err)
	}
	return sum
}

// TestConcurrentJobsKeepTheirOwnTraces: with metrics on, a job's
// persisted report carries the trace summary and events of its run —
// and only of its run. Two jobs with different seeds execute at once on
// one daemon over in-process workers, which all write to the same
// process-wide span ring; each report must count exactly its own
// instances.
func TestConcurrentJobsKeepTheirOwnTraces(t *testing.T) {
	metrics.SetEnabled(true)
	t.Cleanup(func() { metrics.SetEnabled(false) })

	// Hold both runs at the door until both have arrived, so their
	// intervals overlap rather than happening to run back to back.
	var door sync.WaitGroup
	door.Add(2)
	runner := func(ctx context.Context, plan shard.Plan, copt shard.Options) (*vcd.RunReport, *shard.Counters, error) {
		door.Done()
		door.Wait()
		return shard.Run(ctx, plan, copt)
	}
	s, err := New(Options{DataDir: t.TempDir(), Concurrency: 2, Shards: 2, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	registerDataset(s, "d", datasetDir(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)
	h := s.Handler()

	jobs := []JobRequest{
		{Dataset: "d", System: "lightdblike", Queries: []string{"Q1", "Q5"}, Seed: 11, Instances: 4},
		{Dataset: "d", System: "lightdblike", Queries: []string{"Q1", "Q2a", "Q5"}, Seed: 12, Instances: 3},
	}
	ids := make([]string, len(jobs))
	for i, req := range jobs {
		ids[i] = submit(t, h, req, "")
	}
	for i, id := range ids {
		waitStatus(t, h, id, StatusDone)
		sum := jobReport(t, h, id)
		want := len(jobs[i].Queries) * jobs[i].Instances // × scale 1
		if sum.Trace == nil {
			t.Errorf("job %d: no trace in the persisted report", i)
		} else if sum.Trace.Instances != want {
			t.Errorf("job %d: trace counts %d instances, want its own %d", i, sum.Trace.Instances, want)
		}
		var merges int
		for _, e := range sum.Events {
			if e.Kind == metrics.EventMergeComplete {
				merges++
			}
		}
		if merges < len(jobs[i].Queries) {
			t.Errorf("job %d: %d merge_complete events in %d, want its %d batches'", i, merges, len(sum.Events), len(jobs[i].Queries))
		}
		if sum.Telemetry == nil {
			t.Errorf("job %d: no telemetry in the persisted report", i)
		}
	}
}
