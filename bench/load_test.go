package main

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestSubSeedStreamsAreIndependentAndStable(t *testing.T) {
	if subSeed(1, "plan/0") != subSeed(1, "plan/0") {
		t.Fatal("same (root, label) must give the same seed")
	}
	seen := map[uint64]string{}
	for root := uint64(1); root <= 3; root++ {
		for _, label := range []string{"plan/0", "plan/1", "dataset/0", "openloop/arrivals", "openloop/tenant"} {
			s := subSeed(root, label)
			key := fmt.Sprintf("%d/%s", root, label)
			if prev, dup := seen[s]; dup {
				t.Fatalf("%s and %s share seed %d", prev, key, s)
			}
			if s == 0 {
				t.Fatalf("%s: zero seed", key)
			}
			seen[s] = key
		}
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := buildSchedule(7, openLoopRate, 10*time.Second, 3)
	b := buildSchedule(7, openLoopRate, 10*time.Second, 3)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedule lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Due != b[i].Due || a[i].Tenant != b[i].Tenant || !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("arrival %d differs between two builds of seed 7", i)
		}
		if i > 0 && a[i].Due < a[i-1].Due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	// ≈ rate × horizon arrivals, and another seed gives another schedule.
	if n := float64(len(a)); n < 0.6*openLoopRate*10 || n > 1.4*openLoopRate*10 {
		t.Fatalf("%d arrivals in 10 s at %g/s", len(a), openLoopRate)
	}
	c := buildSchedule(8, openLoopRate, 10*time.Second, 3)
	if len(c) == len(a) && c[0].Due == a[0].Due && bytes.Equal(c[0].Body, a[0].Body) {
		t.Fatal("seeds 7 and 8 built the same schedule")
	}
	light := 0
	for _, x := range a {
		if len(x.Job.Queries) == 2 {
			light++
		}
	}
	// Blocks of ten hold the mix share within one block's remainder.
	if want := len(a) * lightMixPer10 / 10; light < want-3 || light > want+3 {
		t.Fatalf("%d of %d jobs are the light mix, want ≈ %d", light, len(a), want)
	}
}

// A stalled submit call must be charged to the jobs queued behind it:
// their latency, counted from the instant they were due, contains the
// stall, and the generator reports how late it ran. Counting from the
// send instant instead would hide the stall — coordinated omission.
func TestOpenLoopChargesAStallToTheJobsBehindIt(t *testing.T) {
	const (
		n     = 20
		gap   = 5 * time.Millisecond
		stall = 150 * time.Millisecond
	)
	sched := make([]arrival, n)
	for i := range sched {
		sched[i] = arrival{Due: time.Duration(i) * gap, Tenant: "t"}
	}
	var calls atomic.Int32
	submit := func(ctx context.Context, a arrival) (string, error) {
		if calls.Add(1) == 3 { // the third job's submit stalls
			time.Sleep(stall)
		}
		return fmt.Sprint(a.Due), nil
	}
	fired := runOpenLoop(context.Background(), sched, 1, submit)

	var fromDue, fromSent, late []float64
	for i, f := range fired {
		if f.Err != nil {
			t.Fatalf("job %d: %v", i, f.Err)
		}
		if i > 2 { // the jobs behind the stalled one
			fromDue = append(fromDue, f.Acked.Sub(f.Due).Seconds()*1e3)
			fromSent = append(fromSent, f.Acked.Sub(f.Sent).Seconds()*1e3)
		}
		late = append(late, f.Sent.Sub(f.Due).Seconds()*1e3)
	}
	// Job 3 was due 5 ms into a 150 ms stall: it waited ≈145 ms.
	if first := fromDue[0]; first < 100 {
		t.Fatalf("job behind the stall shows %.1f ms from its due instant; the stall was not charged to it", first)
	}
	if m := median(fromDue); m < 40 {
		t.Fatalf("median latency from due of the jobs behind the stall is %.1f ms: the backlog vanished", m)
	}
	if m := median(fromSent); m > 20 {
		t.Fatalf("median latency from send is %.1f ms: the fake system itself is slow, the test proves nothing", m)
	}
	// And the generator owns up to running late (serve.gen_late_p75_ms).
	if p := percentile(late, 75); p < 40 {
		t.Fatalf("generator lateness p75 = %.1f ms, want the stall's backlog", p)
	}
	// Without a stall the generator is on time.
	calls.Store(100)
	fired = runOpenLoop(context.Background(), sched, 1, submit)
	late = late[:0]
	for _, f := range fired {
		late = append(late, f.Sent.Sub(f.Due).Seconds()*1e3)
	}
	if p := percentile(late, 75); p > 20 {
		t.Fatalf("generator lateness p75 = %.1f ms with no stall", p)
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	sched := []arrival{{Due: 0}, {Due: time.Hour}}
	ctx, cancel := context.WithCancel(context.Background())
	submit := func(ctx context.Context, a arrival) (string, error) {
		cancel() // the first job cancels the run; the second must not wait an hour
		return "", nil
	}
	done := make(chan []fired, 1)
	go func() { done <- runOpenLoop(ctx, sched, 1, submit) }()
	select {
	case fired := <-done:
		if fired[0].Err != nil || fired[1].Err == nil {
			t.Fatalf("errors = %v, %v; want nil, cancelled", fired[0].Err, fired[1].Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runOpenLoop did not return after cancel")
	}
}
