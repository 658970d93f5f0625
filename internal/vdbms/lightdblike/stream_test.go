package lightdblike

import (
	"errors"
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

func (s *frameSink) Open(string, int) (video.Writer, error) {
	return &video.FuncWriter{
		Fn: func(*video.Frame) error {
			if s.written++; s.written == s.failAt {
				return errWrite
			}
			return nil
		},
		CloseFn: func() error { s.closed++; return nil },
	}, nil
}

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
// stops aheadDepth+1 frames past the frame being consumed — a result's
// frame memory is O(pipe depth) however long the clip.
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

// TestStreamingBranchAllocatesOneFramePerDecode pins the streaming
// branch's frame traffic: the decoder's frame goes to the decode cache
// as it is, so a decoded frame costs one frame allocation (a Frame and
// its planes) plus whatever the transform allocates — here nothing. It
// was two: every decoded frame used to be cloned for the cache.
func TestStreamingBranchAllocatesOneFramePerDecode(t *testing.T) {
	fx := vdbmstest.NewFixture(t, 10)
	in := fx.Traffic(0)
	drop := func(int, *video.Frame) (*video.Frame, error) { return nil, nil }
	allocs := func(hi int) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := New(Options{}).eval(in, 0, hi, nil, drop, &video.FuncWriter{Fn: func(*video.Frame) error { return nil }}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const lo, hi = 3, 9
	perFrame := (allocs(hi) - allocs(lo)) / (hi - lo)
	// A frame is two allocations (the struct, one backing array for the
	// planes); the cache's frame list grows by appending.
	if perFrame > 2.5 {
		t.Errorf("%.2f allocations per decoded frame on the streaming branch, want one frame's worth (2)", perFrame)
	}
}

// TestIdentityTransformLeavesTheCacheItsOwnFrames: a written frame
// belongs to the writer, which stamps a window-relative Index on it, so
// when the transform hands back its input the decode cache keeps a copy
// — under the absolute index the detector seeds its RNG from.
func TestIdentityTransformLeavesTheCacheItsOwnFrames(t *testing.T) {
	fx := vdbmstest.NewFixture(t, 11)
	in := fx.Traffic(0)
	e := New(Options{})
	var out *video.Video
	w, err := vdbms.OpenResult(vdbms.SinkFunc(func(_ string, v *video.Video) error { out = v; return nil }), "out", 15)
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi = 3, 8
	if err := e.eval(in, lo, hi, nil, func(_ int, f *video.Frame) (*video.Frame, error) { return f, nil }, w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cached, ok := e.cache.get(cacheKey(in), 0, hi)
	if !ok || len(out.Frames) != hi-lo {
		t.Fatalf("cache hit %v, %d frames written", ok, len(out.Frames))
	}
	for i, f := range cached.Frames {
		if f.Index != i {
			t.Errorf("cached frame %d carries index %d", i, f.Index)
		}
	}
	for i, f := range out.Frames {
		if f.Index != i || f == cached.Frames[lo+i] {
			t.Errorf("written frame %d: index %d, shared with the cache %v", i, f.Index, f == cached.Frames[lo+i])
		}
	}
}
