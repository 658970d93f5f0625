package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// subSeed derives the seed of one labelled, independent random stream
// from the root seed: every consumer (dataset k, plan i, arrivals,
// tenants, …) draws from its own stream, so adding a draw to one never
// shifts another, and the program under test only ever sees the
// generated inputs.
func subSeed(root uint64, label string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], root)
	h.Write(b[:])
	h.Write([]byte{0})
	h.Write([]byte(label))
	// FNV-1a's last step is a multiply, which leaves the high bits of
	// near-identical labels ("plan/1", "plan/2") correlated; finish with
	// a splitmix64 round.
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

func subRNG(root uint64, label string) *rand.Rand {
	return rand.New(rand.NewSource(int64(subSeed(root, label))))
}

// Open-loop traffic shape of serve_openloop (ISSUE 11): independent
// tenants submitting small jobs at a fixed mean rate.
const (
	openLoopRate    = 12.0 // jobs/s; 20/s was visibly noisier on a 2-core host
	openLoopTenants = 8
	lightMixPer10   = 7 // of every 10 jobs run {Q1,Q5}; the rest {Q1,Q2a,Q5}
)

var jobMixes = [][]string{{"Q1", "Q5"}, {"Q1", "Q2a", "Q5"}}

// jobBody is the submit-API body the generator sends; field names follow
// serve.JobRequest.
type jobBody struct {
	Dataset   string   `json:"dataset"`
	System    string   `json:"system"`
	Queries   []string `json:"queries"`
	Seed      uint64   `json:"seed"`
	Instances int      `json:"instances"`
}

// arrival is one scheduled submission.
type arrival struct {
	Due    time.Duration // offset from the start of the phase
	Tenant string
	Job    jobBody
	Body   []byte // Job, marshalled
}

// blockDraw draws categories in seeded-shuffled blocks: every block holds
// each category exactly as often as the block lists it, in random order.
// The two job mixes cost 2× apart, so with independent draws the realised
// share of a ~90-job phase wanders by ±5 points and drags the median
// across the gap between the two modes; blocks pin the share and keep the
// order random.
type blockDraw struct {
	rng   *rand.Rand
	block []int
	pos   int
}

func newBlockDraw(rng *rand.Rand, counts ...int) *blockDraw {
	b := &blockDraw{rng: rng}
	for category, n := range counts {
		for i := 0; i < n; i++ {
			b.block = append(b.block, category)
		}
	}
	b.pos = len(b.block)
	return b
}

func (b *blockDraw) next() int {
	if b.pos == len(b.block) {
		b.rng.Shuffle(len(b.block), func(i, j int) { b.block[i], b.block[j] = b.block[j], b.block[i] })
		b.pos = 0
	}
	b.pos++
	return b.block[b.pos-1]
}

// jobDrawer draws the jobs of one phase, each property from its own
// stream.
type jobDrawer struct {
	tenant, seed *rand.Rand
	mix, dataset *blockDraw
}

func newJobDrawer(root uint64, phase string, datasets int) *jobDrawer {
	perDataset := make([]int, datasets)
	for i := range perDataset {
		perDataset[i] = 1
	}
	return &jobDrawer{
		tenant:  subRNG(root, phase+"/tenant"),
		seed:    subRNG(root, phase+"/jobseed"),
		mix:     newBlockDraw(subRNG(root, phase+"/mix"), lightMixPer10, 10-lightMixPer10),
		dataset: newBlockDraw(subRNG(root, phase+"/dataset"), perDataset...),
	}
}

func (d *jobDrawer) next(due time.Duration) arrival {
	a := arrival{
		Due:    due,
		Tenant: fmt.Sprintf("tenant-%d", d.tenant.Intn(openLoopTenants)),
		Job: jobBody{
			Dataset:   datasetName(d.dataset.next()),
			System:    "lightdblike",
			Queries:   jobMixes[d.mix.next()],
			Seed:      d.seed.Uint64()>>1 | 1, // the daemon reads seed 0 as "default"
			Instances: 1,
		},
	}
	a.Body, _ = json.Marshal(a.Job) // plain struct of strings and ints: cannot fail
	return a
}

func datasetName(k int) string { return fmt.Sprintf("ds%d", k) }

// buildSchedule draws a Poisson arrival schedule at rate jobs/s over the
// horizon. Same root ⇒ byte-identical schedule and request bodies.
func buildSchedule(root uint64, rate float64, horizon time.Duration, datasets int) []arrival {
	gaps := subRNG(root, "openloop/arrivals")
	jobs := newJobDrawer(root, "openloop", datasets)
	var out []arrival
	t := 0.0
	for {
		t += gaps.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= horizon {
			return out
		}
		out = append(out, jobs.next(due))
	}
}

// fired is what the generator observed for one arrival.
type fired struct {
	Due   time.Time // when the job should have been sent
	Sent  time.Time // when a submitter actually picked it up
	Acked time.Time // when the submit call returned
	ID    string
	Err   error
}

// submitFunc sends one arrival and returns the job's ID.
type submitFunc func(ctx context.Context, a arrival) (string, error)

// runOpenLoop fires the schedule regardless of how the system responds:
// a dispatcher releases each arrival at its due instant to a pool of
// conns submitters. When every submitter is stuck in a slow call the
// released arrivals wait in line and are sent late — Sent−Due is the
// generator's lateness, and because latency is always counted from Due,
// a stall is charged to every job queued behind it instead of silently
// thinning the load (coordinated omission).
func runOpenLoop(ctx context.Context, sched []arrival, conns int, submit submitFunc) []fired {
	out := make([]fired, len(sched))
	// Sized to the number of sends: the dispatcher must never block on a
	// busy pool, or the schedule would slip with it.
	ready := make(chan int, len(sched))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				out[i].Sent = time.Now()
				out[i].ID, out[i].Err = submit(ctx, sched[i])
				out[i].Acked = time.Now()
			}
		}()
	}
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
dispatch:
	for i, a := range sched {
		out[i].Due = start.Add(a.Due)
		if wait := time.Until(out[i].Due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				for j := i; j < len(sched); j++ {
					out[j].Due = start.Add(sched[j].Due)
					out[j].Err = ctx.Err()
				}
				break dispatch
			}
		}
		ready <- i
	}
	close(ready)
	wg.Wait()
	return out
}
