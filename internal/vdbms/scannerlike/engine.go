// Package scannerlike implements a VDBMS in the architectural style of
// Scanner (Poms et al., 2018): a batch dataflow engine that eagerly
// materializes decoded frame tables between operator stages and
// parallelizes kernels across a worker pool.
//
// The traits the paper observes for Scanner emerge from this
// architecture:
//
//   - Every operator stage materializes its full output table, so
//     memory pressure grows with scale factor; past the memory budget
//     the engine spills tables to disk and re-reads them each stage
//     (the "memory thrashing" of Figure 6).
//   - The crop/resize path (Q1, Q4, Q5) runs through a general bilinear
//     resize kernel rather than a fast copy (the paper's
//     "poorly-performing resize kernel").
//   - Q4 (upsampling) allocates its entire output table up front; the
//     allocation exceeds any realistic budget and the engine fails to
//     make progress, as the paper reports ("we were not able to
//     execute Q4 on Scanner").
//   - Object detection runs through a heavyweight framework path
//     (standing in for Caffe) — two extra convolution passes per frame
//     over the benchmark's standard detector.
package scannerlike

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/vdbms"
	"repro/internal/video"
)

// Options configure the engine.
type Options struct {
	// MemoryBudgetBytes bounds the in-memory frame table pool; tables
	// beyond it spill to disk. Default 256 MiB.
	MemoryBudgetBytes int64
	// HardLimitBytes is the allocation size at which the engine fails
	// outright instead of spilling (default 8× the budget).
	HardLimitBytes int64
	// Workers is the kernel worker pool size (default min(4, usable
	// CPUs) — bounded by GOMAXPROCS so oversubscription is never the
	// default; explicit counts are honored as given).
	Workers int
	// SpillDir is where spilled tables go (default os.TempDir()).
	SpillDir string
}

func (o Options) withDefaults() Options {
	if o.MemoryBudgetBytes <= 0 {
		o.MemoryBudgetBytes = 256 << 20
	}
	if o.HardLimitBytes <= 0 {
		o.HardLimitBytes = 8 * o.MemoryBudgetBytes
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
		if g := runtime.GOMAXPROCS(0); g < o.Workers {
			o.Workers = g
		}
		if o.Workers > 4 {
			o.Workers = 4
		}
	}
	if o.SpillDir == "" {
		o.SpillDir = os.TempDir()
	}
	return o
}

// Engine is the Scanner-like system.
type Engine struct {
	opt    Options
	mu     sync.Mutex
	live   int64                   // bytes of materialized tables currently held
	ingest map[string]*ingestEntry // job-level decoded-input cache, keyed by input name
}

// ingestEntry is one single-flight slot of the ingest cache: the first
// instance to need an input decodes it; concurrent instances wait on
// done instead of decoding (and accounting) the same table twice.
type ingestEntry struct {
	done chan struct{}
	t    *table
	err  error
}

// New returns an engine with the given options.
func New(opt Options) *Engine {
	return &Engine{opt: opt.withDefaults(), ingest: make(map[string]*ingestEntry)}
}

// Shutdown releases the job-level ingest cache (and its spill files).
func (e *Engine) Shutdown() {
	e.mu.Lock()
	cached := e.ingest
	e.ingest = make(map[string]*ingestEntry)
	e.mu.Unlock()
	for _, ent := range cached {
		<-ent.done
		if ent.t != nil {
			ent.t.pinned = false
			ent.t.release()
		}
	}
}

// Name implements vdbms.System.
func (e *Engine) Name() string { return "scannerlike" }

// Supports implements vdbms.System. Scanner executes every benchmark
// query except Q4, which fails on memory (reported at execution time,
// since the system accepts the query).
func (e *Engine) Supports(q queries.QueryID) bool { return true }

// Execute implements vdbms.System.
func (e *Engine) Execute(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	switch inst.Query {
	case queries.Q1:
		return e.runQ1(inst, sink)
	case queries.Q2a:
		return e.runQ2a(inst, sink)
	case queries.Q2b:
		return e.runQ2b(inst, sink)
	case queries.Q2c:
		return e.runQ2c(inst, sink)
	case queries.Q2d:
		return e.runQ2d(inst, sink)
	case queries.Q3:
		return e.runQ3(inst, sink)
	case queries.Q4:
		return e.runQ4(inst, sink)
	case queries.Q5:
		return e.runQ5(inst, sink)
	case queries.Q6a:
		return e.runQ6a(inst, sink)
	case queries.Q6b:
		return e.runQ6b(inst, sink)
	case queries.Q7:
		return e.runQ7(inst, sink)
	case queries.Q8:
		return e.runQ8(inst, sink)
	case queries.Q9:
		return e.runQ9(inst, sink)
	case queries.Q10:
		return e.runQ10(inst, sink)
	}
	return &vdbms.ErrUnsupported{System: e.Name(), Query: inst.Query}
}

// table is a fully materialized frame table — Scanner's unit of
// inter-operator data exchange. Tables past the memory budget live on
// disk and page frames in per access.
type table struct {
	engine  *Engine
	frames  []*video.Frame // nil entries when spilled
	files   []string       // spill files, parallel to frames
	w, h    int
	fps     int
	bytes   int64
	spilled bool
	// pinned tables belong to the job-level ingest cache and survive
	// release() until Shutdown.
	pinned bool
}

func frameBytes(w, h int) int64 { return int64(w*h) * 3 / 2 }

// newTable materializes a frame slice, spilling if the engine's live
// set would exceed the budget. Returns ErrResource when the allocation
// alone exceeds the hard limit.
func (e *Engine) newTable(q queries.QueryID, frames []*video.Frame, w, h, fps int) (*table, error) {
	t := &table{engine: e, w: w, h: h, fps: fps}
	t.bytes = frameBytes(w, h) * int64(len(frames))
	if t.bytes > e.opt.HardLimitBytes {
		return nil, &vdbms.ErrResource{
			System: e.Name(), Query: q,
			Reason: fmt.Sprintf("table of %d MiB exceeds memory: allocator exhausted", t.bytes>>20),
		}
	}
	e.mu.Lock()
	overBudget := e.live+t.bytes > e.opt.MemoryBudgetBytes
	if !overBudget {
		e.live += t.bytes
	}
	e.mu.Unlock()
	if overBudget {
		// Spill: write every frame to disk and keep only handles.
		t.spilled = true
		dir, err := os.MkdirTemp(e.opt.SpillDir, "scannerlike-spill-")
		if err != nil {
			return nil, fmt.Errorf("scannerlike: spill: %w", err)
		}
		t.files = make([]string, len(frames))
		for i, f := range frames {
			path := filepath.Join(dir, fmt.Sprintf("f%06d.raw", i))
			if err := writeRawFrame(path, f); err != nil {
				return nil, err
			}
			t.files[i] = path
		}
		t.frames = make([]*video.Frame, len(frames))
		return t, nil
	}
	t.frames = frames
	return t, nil
}

// release returns the table's memory to the pool and deletes spill
// files. Pinned (ingest-cache) tables are retained until Shutdown.
func (t *table) release() {
	if t.pinned {
		return
	}
	if t.spilled {
		for _, f := range t.files {
			os.Remove(f)
		}
		if len(t.files) > 0 {
			os.Remove(filepath.Dir(t.files[0]))
		}
		return
	}
	t.engine.mu.Lock()
	t.engine.live -= t.bytes
	t.engine.mu.Unlock()
}

// len returns the number of rows (frames).
func (t *table) len() int {
	if t.spilled {
		return len(t.files)
	}
	return len(t.frames)
}

// row fetches frame i, paging it in from disk when spilled.
func (t *table) row(i int) (*video.Frame, error) {
	if !t.spilled {
		return t.frames[i], nil
	}
	return readRawFrame(t.files[i], t.w, t.h, i)
}

func writeRawFrame(path string, f *video.Frame) error {
	buf := make([]byte, 0, len(f.Y)+len(f.U)+len(f.V))
	buf = append(buf, f.Y...)
	buf = append(buf, f.U...)
	buf = append(buf, f.V...)
	return os.WriteFile(path, buf, 0o644)
}

func readRawFrame(path string, w, h, idx int) (*video.Frame, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scannerlike: page-in: %w", err)
	}
	f := video.NewFrame(w, h)
	f.Index = idx
	n := copy(f.Y, data)
	n += copy(f.U, data[n:])
	copy(f.V, data[n:])
	return f, nil
}

// mapTable applies a kernel to every row in parallel and materializes
// the result as a new table. The output dimensions come from the first
// produced frame.
func (e *Engine) mapTable(q queries.QueryID, in *table, kernel func(*video.Frame) (*video.Frame, error)) (*table, error) {
	n := in.len()
	out := make([]*video.Frame, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, e.opt.Workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			f, err := in.row(i)
			if err != nil {
				errs[i] = err
				return
			}
			g, err := kernel(f)
			if err != nil {
				errs[i] = err
				return
			}
			g.Index = i
			out[i] = g
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	w, h := in.w, in.h
	if n > 0 && out[0] != nil {
		w, h = out[0].W, out[0].H
	}
	return e.newTable(q, out, w, h, in.fps)
}

// loadTable decodes an input fully into a table (Scanner's eager
// ingest). Decoded inputs are cached for the life of the job, keyed by
// input name: the batch model re-reads the same table across operator
// stages and query instances, so the ingested dataset stays resident —
// which is exactly what drives the engine past its memory budget (and
// into spill-and-page-in thrashing) as the benchmark's scale factor
// grows.
func (e *Engine) loadTable(q queries.QueryID, in *vdbms.Input) (*table, error) {
	return e.loadTableRange(q, in, 0, len(in.Encoded.Frames), nil)
}

// loadTableRange ingests only the (frame window × tile set) rectangle an
// instance declared up front — Scanner's eager model still materializes
// it as a table, but frames outside [lo, hi) are never decoded, and with
// tiles non-nil (vdbms.InputTiles) only those tiles are (rows stay
// full-dimension, so operator coordinates need no translation). Every
// distinct rectangle gets its own ingest-cache slot, so a partial ingest
// can never satisfy a later wider load.
func (e *Engine) loadTableRange(q queries.QueryID, in *vdbms.Input, lo, hi int, tiles []int) (*table, error) {
	key := in.Name
	if lo != 0 || hi != len(in.Encoded.Frames) || tiles != nil {
		key = fmt.Sprintf("%s#%d-%d@%v", in.Name, lo, hi, tiles)
	}
	return e.loadTableKeyed(in, key, func() (*table, error) {
		v, err := vdbms.Decode(in, lo, hi, tiles)
		if err != nil {
			return nil, err
		}
		w, h := v.Resolution()
		t, err := e.newTable(q, v.Frames, w, h, v.FPS)
		if err != nil {
			return nil, err
		}
		t.pinned = true
		return t, nil
	})
}

// loadTableKeyed runs the single-flight ingest protocol for one
// ingest-cache slot: the first caller fills, concurrent callers block
// on the filling one, failed fills vanish so a later instance retries.
// A live input is no slot's: its fill meets vdbms.Decode's refusal.
func (e *Engine) loadTableKeyed(in *vdbms.Input, key string, fill func() (*table, error)) (*table, error) {
	if in.Live != nil {
		return fill()
	}
	e.mu.Lock()
	if ent, ok := e.ingest[key]; ok {
		e.mu.Unlock()
		// An ingest-cache hit is still a logical decode request: the
		// span keeps decode counts request-level (matching the other
		// engines) and times how long the instance blocked on the
		// filling one.
		sp := metrics.StartSpan(metrics.StageDecode)
		sp.Trace(in.Trace)
		sp.Cache(true)
		<-ent.done
		if ent.err == nil {
			sp.Frames(ent.t.len())
			sp.End()
		}
		return ent.t, ent.err
	}
	ent := &ingestEntry{done: make(chan struct{})}
	e.ingest[key] = ent
	e.mu.Unlock()

	ent.t, ent.err = fill()
	if ent.err != nil {
		// Failed ingests are not cached: a later instance retries (and
		// reports the failure under its own query).
		e.mu.Lock()
		delete(e.ingest, key)
		e.mu.Unlock()
	}
	close(ent.done)
	return ent.t, ent.err
}

// emitTable converts a table back to a video and emits it. Rows are
// shallow-copied (plane storage shared, header fresh) so the emitted
// video's index stamping never writes to table rows other instances
// may be reading concurrently.
func (t *table) emit(sink vdbms.Sink, key string) error {
	v := video.NewVideo(t.fps)
	for i := 0; i < t.len(); i++ {
		f, err := t.row(i)
		if err != nil {
			return err
		}
		g := *f
		v.Append(&g)
	}
	return sink.Emit(key, v)
}
