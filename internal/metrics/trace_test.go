package metrics

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// withMetrics enables span recording for one test and restores the
// disabled default afterwards (the registry is process-global).
func withMetrics(t *testing.T) {
	t.Helper()
	SetEnabled(true)
	t.Cleanup(func() { SetEnabled(false) })
}

func TestSpanDisabledIsFree(t *testing.T) {
	SetEnabled(false)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := StartSpan(StageDecode)
		sp.Frames(10)
		sp.Bytes(1 << 20)
		sp.Worker(3)
		sp.Cache(true)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span allocates %.1f objects per op, want 0", allocs)
	}
}

func TestSpanEnabledZeroAlloc(t *testing.T) {
	withMetrics(t)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := StartSpan(StageDecode)
		sp.Frames(10)
		sp.Bytes(1 << 20)
		sp.Worker(3)
		sp.Cache(false)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("enabled span allocates %.1f objects per op, want 0 on the hot path", allocs)
	}
}

func TestSpanRecordsStageActivity(t *testing.T) {
	withMetrics(t)
	base := Capture()

	sp := StartSpan(StageExecute)
	sp.Frames(24)
	sp.Bytes(4096)
	sp.Worker(5)
	time.Sleep(time.Millisecond)
	sp.End()

	hit := StartSpan(StageExecute)
	hit.Cache(true)
	hit.End()

	tele := Capture().Sub(base)
	st, ok := tele.Stages[StageExecute.String()]
	if !ok {
		t.Fatalf("stage %q missing from telemetry: %v", StageExecute, tele.Stages)
	}
	if st.Count != 2 {
		t.Errorf("Count = %d, want 2", st.Count)
	}
	if st.Frames != 24 || st.Bytes != 4096 {
		t.Errorf("Frames/Bytes = %d/%d, want 24/4096", st.Frames, st.Bytes)
	}
	if st.Hits != 1 {
		t.Errorf("Hits = %d, want 1", st.Hits)
	}
	if st.Workers < 6 {
		t.Errorf("Workers = %d, want >= 6 (worker id 5 observed)", st.Workers)
	}
	if st.P50MS <= 0 || st.P95MS <= 0 || st.P99MS <= 0 {
		t.Errorf("quantiles not positive: p50=%g p95=%g p99=%g", st.P50MS, st.P95MS, st.P99MS)
	}
	if st.MaxMS < 1.0 {
		t.Errorf("MaxMS = %g, want >= 1 (slept 1ms)", st.MaxMS)
	}
}

func TestSpanDisabledRecordsNothing(t *testing.T) {
	SetEnabled(false)
	base := Capture()
	sp := StartSpan(StageRender)
	sp.Frames(1)
	sp.End()
	tele := Capture().Sub(base)
	if st := tele.Stages[StageRender.String()]; st.Count != 0 || st.Frames != 0 {
		t.Fatalf("disabled span recorded activity: %+v", st)
	}
}

func TestSpanEndsAtMostOnce(t *testing.T) {
	withMetrics(t)
	base := Capture()
	sp := StartSpan(StageMux)
	sp.End()
	sp.End() // second End must be a no-op
	tele := Capture().Sub(base)
	if st := tele.Stages[StageMux.String()]; st.Count != 1 {
		t.Fatalf("double End recorded %d observations, want 1", st.Count)
	}
}

func TestSpanConcurrentAggregation(t *testing.T) {
	withMetrics(t)
	base := Capture()
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := StartSpan(StageSeek)
				sp.Frames(1)
				sp.Worker(g)
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	st := Capture().Sub(base).Stages[StageSeek.String()]
	if st.Count != goroutines*per {
		t.Fatalf("Count = %d, want %d (atomic aggregation must be lossless)", st.Count, goroutines*per)
	}
	if st.Frames != goroutines*per {
		t.Fatalf("Frames = %d, want %d", st.Frames, goroutines*per)
	}
}

// TestRecordErrorBounded: the error channel is bounded and read by
// interval — an interval lists the errors recorded between its own two
// captures (the last maxErrors of them, the rest counted), never an
// earlier interval's.
func TestRecordErrorBounded(t *testing.T) {
	base := Capture()
	for i := 0; i < maxErrors+10; i++ {
		RecordError("test", fmt.Errorf("boom %d", i))
	}
	RecordError("test", nil) // nil must be ignored
	mid := Capture()
	a := mid.Delta(base)
	if len(a.Errors) != maxErrors || a.ErrorsDropped != 10 {
		t.Fatalf("interval A: %d errors listed, %d dropped; want %d and 10", len(a.Errors), a.ErrorsDropped, maxErrors)
	}
	if want := fmt.Sprintf("test: boom %d", maxErrors+9); a.Errors[len(a.Errors)-1] != want {
		t.Fatalf("interval A ends with %q, want %q", a.Errors[len(a.Errors)-1], want)
	}

	// Interval B starts after more than maxErrors earlier errors: it
	// must list its own and none of A's.
	RecordError("later", errors.New("job 2 panicked"))
	b := Capture().Delta(mid)
	if len(b.Errors) != 1 || b.Errors[0] != "later: job 2 panicked" || b.ErrorsDropped != 0 {
		t.Fatalf("interval B = %q (dropped %d), want just its own error", b.Errors, b.ErrorsDropped)
	}
	if idle := Capture().Delta(Capture()); len(idle.Errors) != 0 || idle.ErrorsDropped != 0 {
		t.Fatalf("idle interval reports errors: %q (dropped %d)", idle.Errors, idle.ErrorsDropped)
	}
}

// TestGaugeHooks drives the pool and decode-layer hooks and checks the
// gauges they move and the peaks that follow them (the per-row laws are
// TestScalarTable's).
func TestGaugeHooks(t *testing.T) {
	base := Capture()
	PoolStarted(4)
	WorkerBusy()
	WorkerBusy()
	DecodeInflight(1)
	mid := Capture()
	WorkerIdle()
	WorkerIdle()
	PoolFinished(4)
	DecodeInflight(-1)
	CacheResident(123456)
	end := Capture()
	CacheResident(0)

	for _, c := range []struct {
		s    Scalar
		want int64
	}{{poolActive, 1}, {poolWorkers, 4}, {poolBusy, 2}, {inflightDecodes, 1}} {
		if got := mid.vals[c.s] - base.vals[c.s]; got != c.want {
			t.Errorf("%s moved by %d mid-run, want %d", table[c.s].key, got, c.want)
		}
		if end.vals[c.s] != base.vals[c.s] {
			t.Errorf("%s = %d at the end, want the baseline %d", table[c.s].key, end.vals[c.s], base.vals[c.s])
		}
		if hw := mid.vals[c.s+1]; table[c.s+1].kind == peak && hw < mid.vals[c.s] {
			t.Errorf("%s = %d is below its gauge %d", table[c.s+1].key, hw, mid.vals[c.s])
		}
	}
	if end.vals[cacheResident] != 123456 || end.vals[cacheResidentPeak] < 123456 {
		t.Errorf("cache resident = %d, peak %d; want 123456 and at least that", end.vals[cacheResident], end.vals[cacheResidentPeak])
	}
}

func TestTelemetryWriteTable(t *testing.T) {
	withMetrics(t)
	base := Capture()
	sp := StartSpan(StageDecode)
	sp.Frames(7)
	sp.End()
	var sb strings.Builder
	Capture().Sub(base).WriteTable(&sb)
	out := sb.String()
	if !strings.Contains(out, "decode") {
		t.Fatalf("table missing decode stage:\n%s", out)
	}
	if !strings.Contains(out, "stage") || !strings.Contains(out, "p95") {
		t.Fatalf("table missing header:\n%s", out)
	}
}
