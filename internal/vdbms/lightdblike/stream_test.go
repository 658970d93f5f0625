package lightdblike

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/queries"
	"repro/internal/vdbms"
	"repro/internal/vdbms/vdbmstest"
	"repro/internal/video"
)

// frameSink is a vdbms.FrameSink that counts what reaches it and can
// fail the n-th Write.
type frameSink struct {
	failAt          int // 1-based Write to fail; 0 never
	written, closed int
	emitted         int
}

var errWrite = errors.New("writer refused the frame")

func (s *frameSink) Emit(string, *video.Video) error { s.emitted++; return nil }

func (s *frameSink) Open(string, int) (video.Writer, error) { return s, nil }

func (s *frameSink) Write(*video.Frame) error {
	if s.written++; s.written == s.failAt {
		return errWrite
	}
	return nil
}

func (s *frameSink) Close() error { s.closed++; return nil }

// waitGoroutines waits for the goroutine count to come back to base: a
// pipe's producer has returned by the time Pipe does, but its goroutine
// may still be on its way out.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the call: the decode-ahead producer leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamingFailuresUnwind: on the streaming branch a truncated
// access unit, a transform error and a writer error each come back from
// the engine as that error, with the decode span ended, the result
// never closed, nothing in the engine's decode cache and the
// decode-ahead goroutine gone.
func TestStreamingFailuresUnwind(t *testing.T) {
	fx := vdbmstest.NewFixture(t, 9)
	good := fx.Traffic(0)
	enc := *good.Encoded
	enc.Frames = append([]codec.EncodedFrame(nil), enc.Frames...)
	enc.Frames[2].Data = enc.Frames[2].Data[:len(enc.Frames[2].Data)/2]
	truncated := *good
	truncated.Encoded = &enc
	errTransform := errors.New("transform failed at frame 5")
	gray := func(_ int, f *video.Frame) (*video.Frame, error) { return f.Grayscale(), nil }

	metrics.SetEnabled(true)
	t.Cleanup(func() { metrics.SetEnabled(false) })
	for _, c := range []struct {
		name    string
		in      *vdbms.Input
		run     func(e *Engine, in *vdbms.Input, sink vdbms.Sink) error
		failAt  int
		want    error // nil: any error (the codec's)
		written int
	}{
		{name: "truncated access unit", in: &truncated, written: 2,
			run: func(e *Engine, in *vdbms.Input, sink vdbms.Sink) error { return e.emitMap(in, sink, gray) }},
		{name: "truncated access unit, Q2d", in: &truncated, written: 0,
			run: func(e *Engine, in *vdbms.Input, sink vdbms.Sink) error {
				return e.Execute(&vdbms.QueryInstance{Query: queries.Q2d, Params: fx.DefaultParams(t, queries.Q2d), Inputs: []*vdbms.Input{in}}, sink)
			}},
		{name: "transform error", in: good, want: errTransform, written: 5,
			run: func(e *Engine, in *vdbms.Input, sink vdbms.Sink) error {
				return e.emitMap(in, sink, func(i int, f *video.Frame) (*video.Frame, error) {
					if i == 5 {
						return nil, errTransform
					}
					return f.Grayscale(), nil
				})
			}},
		{name: "writer error", in: good, failAt: 4, want: errWrite, written: 4,
			run: func(e *Engine, in *vdbms.Input, sink vdbms.Sink) error { return e.emitMap(in, sink, gray) }},
		{name: "writer error, Q2d", in: good, failAt: 2, want: errWrite, written: 2,
			run: func(e *Engine, in *vdbms.Input, sink vdbms.Sink) error {
				return e.Execute(&vdbms.QueryInstance{Query: queries.Q2d, Params: fx.DefaultParams(t, queries.Q2d), Inputs: []*vdbms.Input{in}}, sink)
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New(Options{})
			sink := &frameSink{failAt: c.failAt}
			goroutines := runtime.NumGoroutine()
			base := metrics.Capture()
			err := c.run(e, c.in, sink)
			if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			if n := metrics.Capture().Sub(base).Stage(metrics.StageDecode).Count; n != 1 {
				t.Errorf("%d decode spans, want 1", n)
			}
			if sink.written != c.written || sink.closed != 0 || sink.emitted != 0 {
				t.Errorf("sink saw %d writes (want %d), %d closes, %d emits: a failed result must stay open", sink.written, c.written, sink.closed, sink.emitted)
			}
			if _, hit := e.cache.get(cacheKey(c.in), 0, 1); hit {
				t.Error("a failed evaluation left frames in the decode cache")
			}
			waitGoroutines(t, goroutines)
		})
	}
}

// scriptedDecoder returns blank frames, counts them, and panics at the
// access unit it is told to.
type scriptedDecoder struct {
	decoded atomic.Int32
	panicAt int32 // 1-based; 0 never
}

func (d *scriptedDecoder) Decode([]byte) (*video.Frame, error) {
	if n := d.decoded.Add(1); n == d.panicAt {
		panic("decoder bug")
	}
	return video.NewFrame(16, 16), nil
}

func scriptedStream(n int, dec decoder) *streamDecoder {
	return &streamDecoder{in: &vdbms.Input{Encoded: &codec.Encoded{Frames: make([]codec.EncodedFrame, n)}}, dec: dec}
}

// TestDecodeAheadProducerPanic: a panic in the decoder, which runs on
// the pipe's producer goroutine, reaches the caller as an error.
func TestDecodeAheadProducerPanic(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	consumed := 0
	err := scriptedStream(10, &scriptedDecoder{panicAt: 3}).ahead(10, func(*video.Frame) error { consumed++; return nil })
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *parallel.PanicError", err)
	}
	if consumed != 2 {
		t.Errorf("consumed %d frames before the panic, want 2", consumed)
	}
	waitGoroutines(t, goroutines)
}

// TestDecodeAheadIsBounded: against a consumer that blocks, the decoder
// stops aheadDepth+1 frames past the frame being consumed — its lead is
// O(pipe depth) however long the clip.
func TestDecodeAheadIsBounded(t *testing.T) {
	const n = 40
	dec := &scriptedDecoder{}
	release := make(chan struct{})
	entered := make(chan struct{})
	done := make(chan error, 1)
	consumed := 0
	go func() {
		done <- scriptedStream(n, dec).ahead(n, func(*video.Frame) error {
			if consumed++; consumed == 1 {
				close(entered)
				<-release
			}
			return nil
		})
	}()
	<-entered
	// One frame with the consumer, aheadDepth buffered, one in the
	// blocked producer's hands.
	const bound = 1 + aheadDepth + 1
	deadline := time.Now().Add(2 * time.Second)
	for dec.decoded.Load() < bound && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a producer that ignored the bound would be far past it by now
	if got := dec.decoded.Load(); got != bound {
		t.Errorf("decoder ran %d frames with the consumer blocked on the first, want %d", got, bound)
	}
	close(release)
	if err := <-done; err != nil || consumed != n {
		t.Fatalf("err %v after %d of %d frames", err, consumed, n)
	}
}

// TestDecodeAheadStaysInlineUnderSharedCache: behind the driver's
// shared cache — concurrent mode, the cores busy with other instances —
// the decoder gets no goroutine of its own: each frame is decoded when
// the consumer asks for it, so an instance's timing does not depend on
// how the scheduler interleaves a producer with the other workers.
func TestDecodeAheadStaysInlineUnderSharedCache(t *testing.T) {
	const n = 10
	dec := &scriptedDecoder{}
	s := scriptedStream(n, dec)
	s.in.Source = cachedSource{}
	goroutines := runtime.NumGoroutine()
	consumed := 0
	err := s.ahead(n, func(*video.Frame) error {
		consumed++
		if got := int(dec.decoded.Load()); got != consumed {
			t.Errorf("frame %d consumed with %d decoded: the decoder ran ahead", consumed, got)
		}
		if g := runtime.NumGoroutine(); g > goroutines {
			t.Errorf("%d goroutines during the loop, %d before it", g, goroutines)
		}
		return nil
	})
	if err != nil || consumed != n {
		t.Fatalf("err %v after %d of %d frames", err, consumed, n)
	}
	// A consumer error comes straight back, and stops the decoder there.
	s = scriptedStream(n, dec)
	s.in.Source = cachedSource{}
	if err := s.ahead(n, func(*video.Frame) error { return errWrite }); err != errWrite || s.pos != 0 {
		t.Errorf("err = %v at frame %d, want the consumer's at frame 0", err, s.pos)
	}
}

// raceBuild is set by race_test.go: sync.Pool drops a quarter of its
// Puts under -race, so allocation pins there allow for the drops.
var raceBuild bool

// clipInput encodes an n-frame 64×48 clip of one GOP whose content
// depends on seed, so that inputs of different seeds have different
// decode cache keys.
func clipInput(t *testing.T, seed, n int) *vdbms.Input {
	t.Helper()
	v := video.NewVideo(15)
	for i := 0; i < n; i++ {
		f := video.NewFrame(64, 48)
		for j := range f.Y {
			f.Y[j] = byte(seed*37 + i*3 + j%61)
		}
		v.Append(f)
	}
	enc, err := codec.EncodeVideo(v, codec.Config{QP: 24, GOP: 30})
	if err != nil {
		t.Fatal(err)
	}
	return &vdbms.Input{Encoded: enc}
}

// TestStreamingBranchAllocatesOneFramePerDecode pins the streaming
// branch's frame traffic at steady state: one engine evaluates three
// inputs round robin, so its two-entry decode cache misses every time
// and evicts a window per evaluation, and the decoder decodes into the
// frames the eviction recycled. A decoded frame then allocates nothing:
// the registry's fresh frames stay at ≈ 0 per decoded frame, and an
// evaluation allocates as much for a 24-frame window as for a 6-frame
// one.
func TestStreamingBranchAllocatesOneFramePerDecode(t *testing.T) {
	ins := []*vdbms.Input{clipInput(t, 1, 24), clipInput(t, 2, 24), clipInput(t, 3, 24)}
	e := New(Options{})
	drop := func(int, *video.Frame) (*video.Frame, error) { return nil, nil }
	sink := &frameSink{}
	next := 0
	run := func(hi int) func() {
		return func() {
			in := ins[next%len(ins)]
			next++
			if err := e.eval(in, 0, hi, nil, drop, sink); err != nil {
				t.Fatal(err)
			}
		}
	}
	const runs = 30
	// measure returns the allocations per evaluation of windows [0, hi)
	// and the registry's fresh frames per decoded frame.
	measure := func(hi int) (perEval, framesPerFrame float64) {
		for range 2 * len(ins) { // the cache and the registry hold windows of this length
			run(hi)()
		}
		_, _, before := video.PoolCounts()
		perEval = testing.AllocsPerRun(runs, run(hi)) // one warm-up run, then runs
		_, _, after := video.PoolCounts()
		return perEval, float64(after-before) / float64((runs+1)*hi)
	}
	short, shortFrames := measure(6)
	long, longFrames := measure(24)
	t.Logf("per evaluation: %.0f allocations at 6 frames, %.0f at 24; fresh frames per decoded frame %.3f, %.3f",
		short, long, shortFrames, longFrames)
	// Under -race a quarter of the recycled frames is dropped: each costs
	// a fresh frame (two allocations) later.
	frameBound, perFrameBound := 0.02, 0.05
	if raceBuild {
		frameBound, perFrameBound = 0.5, 1.0
	}
	if longFrames > frameBound || shortFrames > frameBound {
		t.Errorf("%.3f and %.3f fresh frames per decoded frame at steady state, want ≤ %.2f", shortFrames, longFrames, frameBound)
	}
	if perFrame := (long - short) / (24 - 6); perFrame > perFrameBound {
		t.Errorf("%.2f allocations per decoded frame on the streaming branch (%.0f per 6-frame evaluation, %.0f per 24-frame one), want ≤ %.2f",
			perFrame, short, long, perFrameBound)
	}
}

// TestDecodeCacheRecycles: the decode cache hands a window's frames to
// the registry exactly once, when the window leaves the cache or never
// enters it, and never while an evaluation pins it.
func TestDecodeCacheRecycles(t *testing.T) {
	window := func(n int) *video.Video {
		v := &video.Video{FPS: 15}
		for range n {
			v.Frames = append(v.Frames, video.GetFrame(4, 4))
		}
		return v
	}
	// recycled returns how many frames step handed to the registry.
	recycled := func(step func()) int {
		_, before, _ := video.PoolCounts()
		step()
		_, after, _ := video.PoolCounts()
		return int(after - before)
	}
	expect := func(t *testing.T, what string, got, want int) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %d frames recycled, want %d", what, got, want)
		}
	}
	t.Run("pinned entry evicted, then released", func(t *testing.T) {
		c := newDecodeCache(2)
		c.put(1, window(4), 0, 4)
		pinned, ok := c.get(1, 1, 3)
		if !ok {
			t.Fatal("resident window missed")
		}
		expect(t, "evicting the pinned entry", recycled(func() { c.put(2, window(3), 0, 3); c.put(3, window(2), 0, 2) }), 0)
		if _, hit := c.get(1, 0, 4); hit {
			t.Error("an evicted entry still hits")
		}
		if f := pinned.frames(1, 3); len(f) != 2 || f[0] == nil {
			t.Fatal("the pinned entry lost its frames")
		}
		expect(t, "releasing the evicted entry", recycled(func() { c.release(pinned) }), 4)
		expect(t, "evicting an unpinned entry", recycled(func() { c.put(4, window(1), 0, 1) }), 3)
	})
	t.Run("replaced entry", func(t *testing.T) {
		c := newDecodeCache(2)
		c.put(1, window(2), 2, 4)
		pinned, _ := c.get(1, 2, 4)
		expect(t, "replacing the pinned entry", recycled(func() { c.put(1, window(4), 0, 4) }), 0)
		expect(t, "releasing the replaced entry", recycled(func() { c.release(pinned) }), 2)
		expect(t, "replacing an unpinned entry", recycled(func() { c.put(1, window(6), 0, 6) }), 4)
		if e, hit := c.get(1, 0, 6); !hit {
			t.Error("the covering window is not resident")
		} else {
			expect(t, "releasing a resident entry", recycled(func() { c.release(e) }), 0)
		}
	})
	t.Run("put that covers nothing", func(t *testing.T) {
		c := newDecodeCache(2)
		c.put(1, window(4), 0, 4)
		expect(t, "a window that does not cover the resident one", recycled(func() { c.put(1, window(3), 2, 5) }), 3)
		if _, hit := c.get(1, 0, 4); !hit {
			t.Error("the resident window was replaced by a narrower one")
		}
	})
	t.Run("failed eval", func(t *testing.T) {
		in := clipInput(t, 4, 12)
		e := New(Options{})
		errTransform := errors.New("transform failed at frame 7")
		// Window [2, 12) seeds at frame 0; frames 0–7 reach the loop.
		var err error
		n := recycled(func() {
			err = e.eval(in, 2, 12, nil, func(i int, _ *video.Frame) (*video.Frame, error) {
				if i == 7 {
					return nil, errTransform
				}
				return nil, nil
			}, &frameSink{})
		})
		if !errors.Is(err, errTransform) {
			t.Fatalf("err = %v, want the transform's", err)
		}
		expect(t, "a failed evaluation", n, 8)
		if _, hit := e.cache.get(cacheKey(in), 0, 1); hit {
			t.Error("a failed evaluation left frames in the decode cache")
		}
	})
}

// fixedSource is a shared decoded cache that serves the frames of one
// decoded video, as the VCD's shares its resident frames.
type fixedSource struct{ v *video.Video }

func (s fixedSource) Decoded(_ *vdbms.Input, req codec.Request) (*video.Video, error) {
	return &video.Video{FPS: s.v.FPS, Frames: s.v.Frames[req.Lo:req.Hi]}, nil
}

func (fixedSource) SharedCache() bool { return true }

// TestIdentityTransformLeavesTheCacheItsOwnFrames: a written frame
// belongs to the writer, which stamps a window-relative Index on it, so
// when the transform hands back its input every branch writes a copy —
// the streaming branch, a hit in the engine's decode cache and the
// shared cache alike — and the cached frames keep the absolute indices
// the detector seeds its RNG from.
func TestIdentityTransformLeavesTheCacheItsOwnFrames(t *testing.T) {
	fx := vdbmstest.NewFixture(t, 11)
	in := fx.Traffic(0)
	identity := func(_ int, f *video.Frame) (*video.Frame, error) { return f, nil }
	const lo, hi = 3, 8
	// evalInto evaluates the window with the identity transform and
	// returns what the writer received.
	evalInto := func(e *Engine, in *vdbms.Input) []*video.Frame {
		var out *video.Video
		w, err := vdbms.OpenResult(vdbms.SinkFunc(func(_ string, v *video.Video) error { out = v; return nil }), "out", 15)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.eval(in, lo, hi, nil, identity, w); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if len(out.Frames) != hi-lo {
			t.Fatalf("%d frames written, want %d", len(out.Frames), hi-lo)
		}
		return out.Frames
	}
	// check holds the written frames to window-relative indices and the
	// source frames [0, hi) to their absolute ones, sharing nothing.
	check := func(branch string, written, source []*video.Frame) {
		for i, f := range source {
			if f.Index != i {
				t.Errorf("%s: source frame %d carries index %d", branch, i, f.Index)
			}
		}
		for i, f := range written {
			if f.Index != i || f == source[lo+i] {
				t.Errorf("%s: written frame %d: index %d, shared with the source %v", branch, i, f.Index, f == source[lo+i])
			}
		}
	}
	e := New(Options{})
	streamed := evalInto(e, in)
	hitWritten := evalInto(e, in) // the window is resident now
	entry, ok := e.cache.get(cacheKey(in), 0, hi)
	if !ok {
		t.Fatal("the streamed window is not in the decode cache")
	}
	defer e.cache.release(entry)
	check("streaming", streamed, entry.frames(0, hi))
	check("cache hit", hitWritten, entry.frames(0, hi))

	decoded, err := in.Encoded.DecodeRequest(codec.Request{Hi: hi})
	if err != nil {
		t.Fatal(err)
	}
	shared := *in
	shared.Source = fixedSource{decoded}
	check("shared cache", evalInto(New(Options{}), &shared), decoded.Frames)
}

// TestRunQ2dRecyclesEachDecodedFrame: Q2(d) decodes its input privately
// and recycles each frame once it leaves the mask's window, so an
// instance hands exactly its decoded frames to the registry; under
// -race those are poisoned, so a frame recycled while the window still
// read it would change the output, which must equal the reference.
func TestRunQ2dRecyclesEachDecodedFrame(t *testing.T) {
	fx := vdbmstest.NewFixture(t, 4)
	in := fx.Traffic(0)
	p := fx.DefaultParams(t, queries.Q2d)
	src, err := in.Encoded.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{2, p.M, min(len(in.Encoded.Frames)+3, 60)} {
		p.M = m
		want, err := queries.RunQ2d(src, p)
		if err != nil {
			t.Fatal(err)
		}
		sink := vdbmstest.NewCollectSink()
		_, before, _ := video.PoolCounts()
		err = New(Options{}).Execute(&vdbms.QueryInstance{Query: queries.Q2d, Params: p, Inputs: []*vdbms.Input{in}}, sink)
		_, after, _ := video.PoolCounts()
		if err != nil {
			t.Fatal(err)
		}
		if after-before != int64(len(in.Encoded.Frames)) {
			t.Errorf("m=%d: %d frames recycled, want the %d decoded", m, after-before, len(in.Encoded.Frames))
		}
		got := sink.Outputs["out"]
		if len(got.Frames) != len(want.Frames) {
			t.Fatalf("m=%d: %d output frames, want %d", m, len(got.Frames), len(want.Frames))
		}
		for i, g := range got.Frames {
			w := want.Frames[i]
			if !bytes.Equal(g.Y, w.Y) || !bytes.Equal(g.U, w.U) || !bytes.Equal(g.V, w.V) {
				t.Fatalf("m=%d: output frame %d differs from the reference", m, i)
			}
		}
	}
}

// liveSource is a vdbms.FrameSource over frames that arrive once.
type liveSource []*video.Frame

func (s *liveSource) Next() (*video.Frame, error) {
	if len(*s) == 0 {
		return nil, io.EOF
	}
	f := (*s)[0]
	*s = (*s)[1:]
	return f, nil
}

// TestLiveInputBypassesTheDecodeCache: a live input's frames, a lost one
// missing, are what the engine maps, even with the whole clip cached,
// and its window never enters the cache.
func TestLiveInputBypassesTheDecodeCache(t *testing.T) {
	fx := vdbmstest.NewFixture(t, 9)
	in := fx.Traffic(0)
	ref, err := in.Encoded.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for entries, cached := range []bool{false, true} {
		e := New(Options{})
		if cached {
			if err := e.Execute(fx.Instance(queries.Q2a, queries.Params{}), &frameSink{}); err != nil {
				t.Fatal(err)
			}
		}
		v, err := in.Encoded.Decode() // the engine recycles what it is handed
		if err != nil {
			t.Fatal(err)
		}
		arrived := liveSource(append(v.Frames[:3:3], v.Frames[4:]...))
		live := *in
		live.Live = &arrived
		sink := vdbmstest.NewCollectSink()
		if err := e.Execute(&vdbms.QueryInstance{Query: queries.Q2a, Inputs: []*vdbms.Input{&live}}, sink); err != nil {
			t.Fatal(err)
		}
		out := sink.Outputs["out"]
		if len(out.Frames) != len(ref.Frames)-1 || !bytes.Equal(out.Frames[3].Y, ref.Frames[4].Grayscale().Y) {
			t.Errorf("cached %v: the engine did not map the live frames", cached)
		}
		if n := len(e.cache.entries); n != entries {
			t.Errorf("cached %v: %d cache entries after the live run, want %d", cached, n, entries)
		}
	}
}
