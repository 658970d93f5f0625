package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, as the harness
// saw it from outside. Parent is the ID of the span that caused it (0 =
// root); spans of one iteration or job share Iter. The work done inside
// the span is recorded with it, so ratios are taken where the work
// happens.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Iter    int    `json:"iter"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	work
}

// work is what a span did: items (frames, instances), payload bytes, raw
// Y+U+V samples touched, and heap bytes allocated.
type work struct {
	Count int64 `json:"count,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
	Pix   int64 `json:"pix,omitempty"`
	Alloc int64 `json:"alloc,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory and writes them when the run ends. A
// disabled tracer reads no clock and stores nothing, so the same
// decomposed pass can run with and without it to price the recorder
// itself (bench.trace_overhead_frac).
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// start opens a span and returns its ID (0 when disabled).
func (t *tracer) start(name string, parent, iter int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Iter: iter, Name: name, StartNS: now})
	return len(t.spans)
}

// end closes span id with the work it did.
func (t *tracer) end(id int, w work) {
	if !t.on || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS, s.work = now, w
}

// allocs reads the process's cumulative heap allocation when tracing (0
// otherwise), for spans that report what they allocated.
func (t *tracer) allocs() int64 {
	if !t.on {
		return 0
	}
	return int64(allocBytes())
}

// add records a span whose bounds were measured elsewhere (the daemon's
// own job timestamps), given as wall-clock instants.
func (t *tracer) add(name string, parent, iter int, start, end time.Time) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Iter: iter, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

// spanCost measures what recording one span costs.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer(true)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.start("x", 0, i), work{})
	}
	return time.Since(t0) / n
}

// sum is the total duration of one iteration's spans whose name starts
// with prefix.
func (t *tracer) sum(prefix string, iter int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Iter == iter && strings.HasPrefix(s.Name, prefix) {
			d += s.dur()
		}
	}
	return d
}

// layerTotal aggregates the recorded spans of one name.
type layerTotal struct {
	Spans int
	Total time.Duration // Σ span durations
	Self  time.Duration // Σ durations minus the part child spans cover
	work
	Durs     []float64 // per-span duration, ms
	SelfDurs []float64 // per-span self time, ms
}

// totals folds the spans into per-name totals. A span's self time is its
// duration minus its direct children's durations (children of one span
// run serially in the decomposed pass, so they never overlap).
func (t *tracer) totals() totals {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.dur()
	}
	out := totals{}
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		self := s.dur() - child[s.ID]
		lt.Spans++
		lt.Total += s.dur()
		lt.Self += self
		lt.Count += s.Count
		lt.Bytes += s.Bytes
		lt.Pix += s.Pix
		lt.Alloc += s.Alloc
		lt.Durs = append(lt.Durs, s.dur().Seconds()*1e3)
		lt.SelfDurs = append(lt.SelfDurs, self.Seconds()*1e3)
	}
	return out
}

type totals map[string]*layerTotal

// of returns the totals of one span name (zero when none was recorded).
func (t totals) of(name string) *layerTotal {
	if lt := t[name]; lt != nil {
		return lt
	}
	return &layerTotal{}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ratio is a/b, and 0 when b is 0: a layer that did no work has no rate.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Meta  map[string]any `json:"meta"`
		Spans []span         `json:"spans"`
	}{meta, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
