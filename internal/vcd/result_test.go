package vcd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/vdbms"
	"repro/internal/vdbms/lightdblike"
	"repro/internal/vdbms/noscopelike"
	"repro/internal/vdbms/scannerlike"
	"repro/internal/vfs"
	"repro/internal/video"
)

// emitOnly hides the driver sink's Open from the engine it wraps, so
// vdbms.OpenResult collects the frames and the result reaches the sink
// whole, through Emit.
type emitOnly struct{ vdbms.System }

func (s emitOnly) Execute(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	return s.System.Execute(inst, struct{ vdbms.Sink }{sink})
}

// wholeVideoPayload is the driver's result encode as it was before the
// result writer: the emitted video through codec.EncodeVideo and one
// Mux. It is the reference the frame-at-a-time writer must equal.
func wholeVideoPayload(t *testing.T, v *video.Video) []byte {
	t.Helper()
	if len(v.Frames) == 0 {
		return nil
	}
	w, h := v.Resolution()
	enc, err := codec.EncodeVideo(v, codec.Config{Width: w, Height: h, FPS: v.FPS, QP: 18})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := container.Mux(&buf, enc, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// routeInstances builds one instance per query, plus — for Q1 — a
// window that starts mid-GOP (its seed run is decoded, never written)
// and an empty one (a result with no frame: the nil payload).
func routeInstances(t *testing.T, ds *Dataset, qs []queries.QueryID) []*vdbms.QueryInstance {
	t.Helper()
	var insts []*vdbms.QueryInstance
	for _, q := range qs {
		batch, err := BuildBatch(ds, q, 1, Options{Seed: 11, MaxUpsamplePixels: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, batch[0])
		if q == queries.Q1 {
			for _, win := range [][2]float64{{0.4, 0.8}, {1, 1}} {
				c := *batch[0]
				c.Params.T1, c.Params.T2 = win[0], win[1]
				insts = append(insts, &c)
			}
		}
	}
	return insts
}

// TestOneResultThreeRoutes: a result is the same bytes and the same
// frame count whether the engine writes it frame by frame into the
// driver's sink, the same sink receives it whole through Emit, or a
// plain SinkFunc collects it and the whole video is encoded afterwards
// — in sequential and in concurrent mode, with and without a second P.
func TestOneResultThreeRoutes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-configuration run in -short mode")
	}
	ds := testDataset(t)
	for _, eng := range []struct {
		name string
		mk   func() vdbms.System
		qs   []queries.QueryID
	}{
		{"lightdblike", func() vdbms.System { return lightdblike.New(lightdblike.Options{}) }, []queries.QueryID{
			queries.Q1, queries.Q2a, queries.Q2b, queries.Q2c, queries.Q2d,
			queries.Q4, queries.Q5, queries.Q6a, queries.Q6b,
		}},
		{"scannerlike", func() vdbms.System { return scannerlike.New(scannerlike.Options{}) }, []queries.QueryID{queries.Q2a}},
		{"noscopelike", func() vdbms.System { return noscopelike.NewDefault() }, []queries.QueryID{queries.Q2c}},
	} {
		t.Run(eng.name, func(t *testing.T) {
			insts := routeInstances(t, ds, eng.qs)
			idxs := make([]int, len(insts))
			for i := range idxs {
				idxs[i] = i
			}

			// Route (c): a plain SinkFunc, then the whole-video encode.
			want := map[string][]byte{}
			wantFrames := make([]int, len(insts))
			ds.configureDecodedCache(-1)
			ref := eng.mk()
			for i, inst := range insts {
				err := ref.Execute(inst, vdbms.SinkFunc(func(key string, v *video.Video) error {
					wantFrames[i] += len(v.Frames)
					want[resultName(inst.Query, i, key)] = wholeVideoPayload(t, v)
					return nil
				}))
				if err != nil {
					t.Fatalf("%s[%d]: %v", inst.Query, i, err)
				}
			}
			if empty := want[resultName(queries.Q1, 2, "out")]; eng.name == "lightdblike" && (empty != nil || wantFrames[2] != 0) {
				t.Fatalf("the empty Q1 window produced %d frames", wantFrames[2])
			}

			for _, procs := range []int{1, 4} {
				for _, sequential := range []bool{true, false} {
					for _, route := range []string{"FrameSink", "Emit"} {
						label := fmt.Sprintf("GOMAXPROCS=%d sequential=%v via %s", procs, sequential, route)
						sys := eng.mk()
						if route == "Emit" {
							sys = emitOnly{sys}
						}
						store := vfs.NewMemory()
						r, err := NewBatchRunner(ds, sys, Options{Mode: WriteMode, ResultStore: store, Sequential: sequential, Workers: 4})
						if err != nil {
							t.Fatal(err)
						}
						out := make([]InstanceResult, len(insts))
						prev := runtime.GOMAXPROCS(procs)
						r.insts = insts
						if err := r.Execute(context.Background(), idxs, out); err != nil {
							t.Fatal(err)
						}
						runtime.GOMAXPROCS(prev)

						for i, res := range out {
							if res.Err != nil {
								t.Fatalf("%s: %s[%d]: %v", label, insts[i].Query, i, res.Err)
							}
							if res.Frames != wantFrames[i] {
								t.Errorf("%s: %s[%d] frames = %d, want %d", label, insts[i].Query, i, res.Frames, wantFrames[i])
							}
						}
						names, err := store.List()
						if err != nil {
							t.Fatal(err)
						}
						if len(names) != len(want) {
							t.Errorf("%s: persisted %d results, want %d", label, len(names), len(want))
						}
						for name, wb := range want {
							gb, err := vfs.ReadAll(store, name)
							if err != nil {
								t.Errorf("%s: %v", label, err)
							} else if !bytes.Equal(gb, wb) {
								t.Errorf("%s: %s differs from the whole-video encode (%d vs %d bytes)", label, name, len(gb), len(wb))
							}
						}
					}
				}
			}
		})
	}
}

// failingStore refuses every write.
type failingStore struct{ vfs.Store }

var errStoreFull = errors.New("store full")

func (failingStore) Write(string, []byte) error { return errStoreFull }

// TestResultWriterRetainsOnlyForValidation: with validation off the
// writer holds no frame once Write has returned; with it on, the
// captured video is the written frames, stamped as Append stamps them —
// what Emit captured when it was handed the whole video.
func TestResultWriterRetainsOnlyForValidation(t *testing.T) {
	frames := func() []*video.Frame {
		return []*video.Frame{video.NewFrame(32, 32), video.NewFrame(32, 32), video.NewFrame(32, 32)}
	}
	sink := &resultSink{opt: Options{Mode: StreamingMode}}
	w, _ := sink.Open("out", 15)
	for _, f := range frames() {
		f.Index = 7 // absolute stream position: the writer re-stamps
		if err := w.Write(f); err != nil {
			t.Fatal(err)
		}
		if kept := w.(*resultWriter).kept; kept != nil {
			t.Fatalf("unsampled instance retains %d frames", len(kept.Frames))
		}
	}
	if err := w.Close(); err != nil || sink.frames != 3 {
		t.Fatalf("close: %v, %d frames", err, sink.frames)
	}

	sampled := &resultSink{opt: Options{Mode: StreamingMode}, capture: &InstanceValidation{Outputs: map[string]*video.Video{}}}
	written := frames()
	w, _ = sampled.Open("out", 15)
	for _, f := range written {
		f.Index = 7
		if err := w.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := sampled.capture.Outputs["out"]
	if got == nil || got.FPS != 15 || len(got.Frames) != len(written) {
		t.Fatalf("captured %+v", got)
	}
	for i, f := range got.Frames {
		if f != written[i] || f.Index != i {
			t.Errorf("captured frame %d: index %d, same frame %v", i, f.Index, f == written[i])
		}
	}
}

// TestResultFailuresLeaveNothingBehind: an encoder error (a frame of
// another size mid-stream), a decode error under a result already two
// frames long and a result-store error each come back from Execute as
// the instance's error, end the spans they opened, and persist nothing.
// A result abandoned midway also hands its encoder's state back: the
// next result of that size allocates its access units and container, not
// planes.
func TestResultFailuresLeaveNothingBehind(t *testing.T) {
	ds := testDataset(t)
	metrics.SetEnabled(true)
	t.Cleanup(func() { metrics.SetEnabled(false) })
	batch, err := BuildBatch(ds, queries.Q2a, 1, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ds.configureDecodedCache(-1)

	t.Run("encoder", func(t *testing.T) {
		store := vfs.NewMemory()
		base := metrics.Capture()
		res := executeInstance(ds, shrinkAtFrame5{lightdblike.New(lightdblike.Options{})}, batch[0],
			Options{Mode: WriteMode, ResultStore: store}, 0, 0, 0, -1)
		if res.Err == nil || !strings.Contains(res.Err.Msg, "encoding result") {
			t.Fatalf("err = %v, want the encoder's", res.Err)
		}
		if names, _ := store.List(); len(names) != 0 {
			t.Errorf("a failed result persisted %v", names)
		}
		d := metrics.Capture().Sub(base)
		if n := d.Stage(metrics.StageResultEncode).Count; n != 1 {
			t.Errorf("%d result.encode spans, want 1", n)
		}
		if n := d.Stage(metrics.StageExecute).Count; n != 1 {
			t.Errorf("%d execute spans, want 1", n)
		}
	})
	t.Run("decode", func(t *testing.T) {
		in := *batch[0].Inputs[0]
		enc := *in.Encoded
		enc.Frames = append([]codec.EncodedFrame(nil), enc.Frames...)
		enc.Frames[2].Data = enc.Frames[2].Data[:len(enc.Frames[2].Data)/2]
		in.Encoded = &enc
		inst := *batch[0]
		inst.Inputs = []*vdbms.Input{&in}
		store := vfs.NewMemory()
		base := metrics.Capture()
		res := executeInstance(ds, lightdblike.New(lightdblike.Options{}), &inst,
			Options{Mode: WriteMode, ResultStore: store}, 0, 0, 0, -1)
		if res.Err == nil {
			t.Fatal("a truncated access unit decoded")
		}
		if names, _ := store.List(); len(names) != 0 {
			t.Errorf("a failed result persisted %v", names)
		}
		d := metrics.Capture().Sub(base)
		for _, stage := range []metrics.Stage{metrics.StageDecode, metrics.StageResultEncode, metrics.StageExecute} {
			if n := d.Stage(stage).Count; n != 1 {
				t.Errorf("%d %s spans, want 1", n, stage)
			}
		}
	})
	t.Run("pool", func(t *testing.T) {
		// result writes six frames of a w×h video and reports the bytes
		// the process allocated meanwhile.
		result := func(w, h int, abandon bool) uint64 {
			frames := make([]*video.Frame, 6)
			for i := range frames {
				frames[i] = video.NewFrame(w, h)
				for p := range frames[i].Y {
					frames[i].Y[p] = byte(p%w + p/w + 2*i)
				}
			}
			sink := &resultSink{opt: Options{Mode: StreamingMode}, query: queries.Q1}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, _ := sink.Open("out", 30)
			for _, f := range frames {
				if err := out.Write(f); err != nil {
					t.Fatal(err)
				}
			}
			if !abandon {
				if err := out.Close(); err != nil {
					t.Fatal(err)
				}
			}
			sink.abandon()
			runtime.ReadMemStats(&after)
			if err := out.Write(frames[0]); err == nil || !strings.Contains(err.Error(), "released") {
				t.Fatalf("Write after the result ended = %v, want the released encoder's refusal", err)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		// A size per attempt that nothing else encodes — nor an earlier run
		// of this test under -count or -cpu — so the first result finds the
		// pool cold. sync.Pool may drop a release (a quarter of them under
		// -race): one attempt has to show the reuse.
		for try := 0; try < 8; try++ {
			w, h := 208+16*int(poolTestSizes.Add(1)), 144
			state := uint64(w*h*3 + w/16*h/16*1600) // six planes and the analysis scratch
			if cold := result(w, h, true); cold < state {
				t.Fatalf("the first %dx%d result allocated %d bytes, less than its encoder's state (%d): the measure is blind", w, h, cold, state)
			}
			if warm := result(w, h, false); warm < state/4 {
				return
			}
		}
		t.Error("no result after an abandoned one of its size ran without allocating encoder state")
	})
	t.Run("store", func(t *testing.T) {
		base := metrics.Capture()
		res := executeInstance(ds, lightdblike.New(lightdblike.Options{}), batch[0],
			Options{Mode: WriteMode, ResultStore: failingStore{}}, 0, 0, 0, -1)
		if res.Err == nil || res.Err.Msg != errStoreFull.Error() {
			t.Fatalf("err = %v, want the store's", res.Err)
		}
		if n := metrics.Capture().Sub(base).Stage(metrics.StageResultEncode).Count; n != 1 {
			t.Errorf("%d result.encode spans, want 1", n)
		}
	})
}

// poolTestSizes numbers the frame sizes the pool subtest has used.
var poolTestSizes atomic.Int64

// shrinkAtFrame5 hands the sink a frame of another size as the sixth
// frame of every result the wrapped engine writes.
type shrinkAtFrame5 struct{ vdbms.System }

func (s shrinkAtFrame5) Execute(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	return s.System.Execute(inst, shrinkingSink{sink.(vdbms.FrameSink)})
}

type shrinkingSink struct{ vdbms.FrameSink }

func (s shrinkingSink) Emit(string, *video.Video) error { panic("engine emitted a whole video") }

func (s shrinkingSink) Open(key string, fps int) (video.Writer, error) {
	w, err := s.FrameSink.Open(key, fps)
	return &shrinkingWriter{Writer: w}, err
}

// shrinkingWriter crops the sixth frame it is given to a quarter.
type shrinkingWriter struct {
	video.Writer
	n int
}

func (w *shrinkingWriter) Write(f *video.Frame) error {
	if w.n++; w.n == 6 {
		f = f.Crop(0, 0, f.W/2, f.H/2)
	}
	return w.Writer.Write(f)
}
