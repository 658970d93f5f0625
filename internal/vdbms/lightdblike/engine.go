// Package lightdblike implements a VDBMS in the architectural style of
// LightDB (Haynes et al., 2018): a lazy, streaming functional algebra
// over a spherical ("light field") coordinate model, specialized for
// virtual-reality video.
//
// Architectural traits reproduced from the paper's observations:
//
//   - Streaming evaluation: frames are decoded, transformed, and
//     emitted one at a time, so memory stays flat as scale grows (why
//     LightDB holds up at higher scale factors in Figure 6). Emitted
//     means written to the sink's frame writer (vdbms.OpenResult): the
//     driver's encodes each frame as it arrives, so a per-frame query
//     holds O(pipe depth) output frames, and with no shared cache the
//     decoder runs a few frames ahead of transform + encode on a second
//     goroutine — decode → operator → encode as a pipeline. Q3 and
//     Q7–Q10, whose operators need random access, materialise their
//     input through the same loop into a collecting writer.
//   - Operations are expressed in angular coordinates; benchmark
//     queries defined in pixels are adapted by mapping pixel offsets
//     through the camera's field of view and back (the paper:
//     "LightDB exposes operations that accept angles rather than pixel
//     offsets, and so we adapt each benchmark query by manually
//     mapping between the two coordinate systems").
//   - The captioning query runs a CPU-only per-pixel text compositor
//     (the paper: LightDB "suffers from a CPU-only implementation of
//     the captioning query").
//   - Q3/Q4 instances fail past 40 videos per batch ("fails due to
//     lack of GPU memory"), reported via vdbms.BatchLimiter so the
//     driver can split batches, as the paper's authors did.
package lightdblike

import (
	"io"

	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/queries"
	"repro/internal/vdbms"
	"repro/internal/video"
)

// Options configure the engine. It has no settings; callers pass
// Options{}.
type Options struct{}

const (
	// maxBatchVideos bounds Q3/Q4 batch sizes.
	maxBatchVideos = 40
	// decodeCacheEntries is the number of recently decoded inputs the
	// engine memoizes. Repeated inputs — e.g. a corpus of duplicated
	// videos — hit the cache and skip decoding entirely, which is the
	// caching behavior the paper's Table 9 shows distorting results on
	// the "Duplicates" dataset.
	decodeCacheEntries = 2
)

// Engine is the LightDB-like system.
type Engine struct {
	cache *decodeCache
}

// New returns an engine.
func New(Options) *Engine {
	return &Engine{cache: newDecodeCache(decodeCacheEntries)}
}

// Name implements vdbms.System.
func (e *Engine) Name() string { return "lightdblike" }

// Supports implements vdbms.System: LightDB expresses every benchmark
// query (captioning and ALPR through its plugin mechanism).
func (e *Engine) Supports(q queries.QueryID) bool { return true }

// MaxBatchSize implements vdbms.BatchLimiter.
func (e *Engine) MaxBatchSize(q queries.QueryID) int {
	if q == queries.Q3 || q == queries.Q4 {
		return maxBatchVideos
	}
	return 0
}

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

// transform maps the decoded frame at absolute stream index i to an
// output frame; nil drops the frame.
type transform func(i int, f *video.Frame) (*video.Frame, error)

// emitMap evaluates a per-frame query over a whole input into the
// sink's "out" result.
func (e *Engine) emitMap(in *vdbms.Input, sink vdbms.Sink, t transform) error {
	return e.emitMapRange(in, 0, len(in.Encoded.Frames), nil, sink, t)
}

// emitMapRange is emitMap restricted to a (frame window × tile set)
// rectangle (see eval).
func (e *Engine) emitMapRange(in *vdbms.Input, lo, hi int, tiles []int, sink vdbms.Sink, t transform) error {
	w, err := vdbms.OpenResult(sink, "out", in.Encoded.Config.FPS)
	if err != nil {
		return err
	}
	if err := e.eval(in, lo, hi, tiles, t, w); err != nil {
		return err // w stays open: an abandoned result is never delivered
	}
	return w.Close()
}

// streamMap is emitMap into a collecting writer, for the queries whose
// operators need the mapped input materialised (Q3, Q7–Q10).
func (e *Engine) streamMap(in *vdbms.Input, t transform) (*video.Video, error) {
	var out *video.Video
	err := e.emitMap(in, vdbms.SinkFunc(func(_ string, v *video.Video) error { out = v; return nil }), t)
	return out, err
}

// eval is the engine's one evaluation loop, restricted to the (frame
// window × tile set) rectangle the plan declared: frames outside
// [lo, hi) are never decoded (except the GOP seed run in front of it),
// and with tiles non-nil (vdbms.InputTiles) only those tiles need be
// valid. Each frame is decoded, transformed (t receives absolute stream
// indices) and written to w before the next one is looked at; a written
// frame belongs to w, which re-stamps its Index, so on every branch a
// transform that returns its input writes a copy. Recently decoded
// inputs are served from the engine's decode cache without touching the
// codec.
func (e *Engine) eval(in *vdbms.Input, lo, hi int, tiles []int, t transform, w video.Writer) error {
	n := len(in.Encoded.Frames)
	lo = max(lo, 0)
	hi = max(min(hi, n), lo)
	// apply maps the frame holding stream index i and writes the result.
	apply := func(i int, f *video.Frame) error {
		g, err := t(i, f)
		if err != nil || g == nil {
			return err
		}
		if g == f {
			g = f.Clone()
		}
		return w.Write(g)
	}
	// mapFrames applies frames holding stream indices lo, lo+1, …
	mapFrames := func(frames []*video.Frame) error {
		for i, f := range frames {
			if err := apply(lo+i, f); err != nil {
				return err
			}
		}
		return nil
	}
	// Every path below records exactly one request-level decode span
	// (the shared branch records it inside vdbms.Decode), so span counts
	// per eval call are invariant across modes. A live input's frames
	// arrive once: it is never cached.
	live := in.Live != nil
	key := cacheKey(in)
	var cached *cacheEntry
	if !live {
		cached, _ = e.cache.get(key, lo, hi)
	}
	if cached != nil {
		// A locally resident full-frame window serves any tile set. The
		// entry stays pinned, so not recycled, until the loop is done.
		defer e.cache.release(cached)
		sp := metrics.StartSpan(metrics.StageDecode)
		sp.Trace(in.Trace)
		sp.Cache(true)
		sp.Frames(hi - lo)
		sp.End()
		return mapFrames(cached.frames(lo, hi))
	}
	// When the driver runs with its shared decoded-input cache, use it
	// as the decode layer: concurrent instances over the same rectangle
	// decode it exactly once (single-flight), only the declared tiles
	// reconstruct, and the cache's byte budget bounds residency. The
	// cores are busy with other instances then: no goroutine is added.
	if in.SharedCache() {
		shared, err := vdbms.Decode(in, lo, hi, tiles)
		if err != nil {
			return err
		}
		return mapFrames(shared.Frames)
	}
	// Streaming: with no active cache — the paper-faithful sequential
	// mode — the engine never forces a materialization. It seeks to the
	// keyframe governing the window start, decodes the seed run for
	// reference state only, and stops at the window end; a live input
	// cannot seek, so all its frames before the window are the seed run.
	// The decoder runs ahead of transform + write (hence result encode)
	// on a second goroutine, and the decode span covers the fused loop:
	// streaming evaluation does not separate the stages.
	sp := metrics.StartSpan(metrics.StageDecode)
	defer sp.End() // on the error returns too, with the frames decoded so far
	sp.Trace(in.Trace)
	sp.Cache(false)
	dec, err := newStreamDecoder(in)
	if err != nil {
		return err
	}
	defer dec.close()
	seed := 0
	if lo < hi && !live {
		seed = in.Encoded.KeyframeBefore(lo)
	}
	dec.pos = seed
	// The decoder's frames go to the cache as they are, absolute indices
	// included (the detector seeds its RNG from them). The cache takes
	// them over; a failed or live evaluation recycles them itself.
	decoded := &video.Video{FPS: in.Encoded.Config.FPS, Frames: make([]*video.Frame, 0, hi-seed)}
	err = dec.ahead(hi, func(f *video.Frame) error {
		sp.Frames(1)
		decoded.Frames = append(decoded.Frames, f)
		if f.Index < lo { // seed run
			return nil
		}
		return apply(f.Index, f)
	})
	if err != nil || live {
		recycleFrames(decoded.Frames)
		return err
	}
	e.cache.put(key, decoded, seed, seed+len(decoded.Frames))
	return nil
}

// streamDecoder decodes an input incrementally.
type streamDecoder struct {
	in  *vdbms.Input
	dec decoder
	pos int
}

type decoder interface {
	Decode(data []byte) (*video.Frame, error)
}

// newStreamDecoder takes a decoder for the input from the codec's pool;
// close gives it back.
func newStreamDecoder(in *vdbms.Input) (*streamDecoder, error) {
	d, err := codec.GetDecoder(in.Encoded.Config)
	if err != nil {
		return nil, err
	}
	return &streamDecoder{in: in, dec: d}, nil
}

// close returns a pooled codec decoder to the codec's pool. The frames
// it decoded stay their holders'.
func (s *streamDecoder) close() {
	if d, ok := s.dec.(*codec.Decoder); ok {
		codec.PutDecoder(d)
	}
}

// aheadDepth bounds how many decoded frames may wait for the consumer
// of ahead: a frame is ≈ 60–75 µs of decode at the bench shape
// (192×108), so a few frames of slack absorb scheduling jitter (vcg's
// render→encode pipe has the same depth). It bounds the decoder's lead,
// not the frame memory: eval keeps every frame it decodes for the
// engine's decode cache, so an evaluation holds O(window) frames, and
// the cache up to decodeCacheEntries windows.
const aheadDepth = 3

// ahead decodes frames [s.pos, hi), hi within the clip, and hands each,
// stamped with its stream index, to consume on the calling goroutine. A
// live input's frames below hi are pulled from its source instead, as
// they arrive, until the first at or past hi or the end of the stream.
// With no shared cache — Sequential: the instance has the machine — the
// decoding runs on a producer goroutine, at most aheadDepth+1 frames
// ahead of the frame being consumed, and the first error from either
// side stops both. Under the shared cache the driver's workers already
// keep the cores busy, and a producer would only be one more runnable
// goroutine for the scheduler to interleave with the other instances
// (an instance's time would then depend on what ran beside it): there
// the frames are decoded on the calling goroutine, one by one.
func (s *streamDecoder) ahead(hi int, consume func(*video.Frame) error) error {
	produce := func(emit func(*video.Frame) error) error {
		for ; s.pos < hi; s.pos++ {
			f, err := s.dec.Decode(s.in.Encoded.Frames[s.pos].Data)
			if err != nil {
				return err
			}
			f.Index = s.pos
			if err := emit(f); err != nil {
				return err
			}
		}
		return nil
	}
	if src := s.in.Live; src != nil {
		produce = func(emit func(*video.Frame) error) error {
			f, err := src.Next()
			for ; err == nil && f.Index < hi; f, err = src.Next() {
				if err := emit(f); err != nil {
					return err
				}
			}
			if err == nil {
				video.PutFrame(f) // the first frame past the window
			} else if err != io.EOF {
				return err
			}
			return nil
		}
	}
	if s.in.SharedCache() {
		return produce(consume)
	}
	return parallel.Pipe(aheadDepth, produce, consume)
}
