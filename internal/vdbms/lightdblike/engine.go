// Package lightdblike implements a VDBMS in the architectural style of
// LightDB (Haynes et al., 2018): a lazy, streaming functional algebra
// over a spherical ("light field") coordinate model, specialized for
// virtual-reality video.
//
// Architectural traits reproduced from the paper's observations:
//
//   - Streaming evaluation: frames are decoded, transformed, and
//     emitted one at a time, so memory stays flat as scale grows (why
//     LightDB holds up at higher scale factors in Figure 6).
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
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/vdbms"
	"repro/internal/video"
)

// Options configure the engine.
type Options struct {
	// MaxBatchVideos bounds Q3/Q4 batch sizes (default 40).
	MaxBatchVideos int
	// DecodeCacheEntries is the number of recently decoded inputs the
	// engine memoizes (default 2). Repeated inputs — e.g. a corpus of
	// duplicated videos — hit the cache and skip decoding entirely,
	// which is the caching behavior the paper's Table 9 shows
	// distorting results on the "Duplicates" dataset.
	DecodeCacheEntries int
}

func (o Options) withDefaults() Options {
	if o.MaxBatchVideos <= 0 {
		o.MaxBatchVideos = 40
	}
	if o.DecodeCacheEntries <= 0 {
		o.DecodeCacheEntries = 2
	}
	return o
}

// Engine is the LightDB-like system.
type Engine struct {
	opt   Options
	cache *decodeCache
}

// New returns an engine with the given options.
func New(opt Options) *Engine {
	o := opt.withDefaults()
	return &Engine{opt: o, cache: newDecodeCache(o.DecodeCacheEntries)}
}

// Name implements vdbms.System.
func (e *Engine) Name() string { return "lightdblike" }

// Supports implements vdbms.System: LightDB expresses every benchmark
// query (captioning and ALPR through its plugin mechanism).
func (e *Engine) Supports(q queries.QueryID) bool { return true }

// MaxBatchSize implements vdbms.BatchLimiter.
func (e *Engine) MaxBatchSize(q queries.QueryID) int {
	if q == queries.Q3 || q == queries.Q4 {
		return e.opt.MaxBatchVideos
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

// streamMap is the engine's core evaluation loop over a whole input:
// decode one frame at a time, apply the (lazily composed) transform, and
// append to the output.
func (e *Engine) streamMap(in *vdbms.Input, transform func(i int, f *video.Frame) (*video.Frame, error)) (*video.Video, error) {
	return e.streamMapRange(in, 0, len(in.Encoded.Frames), nil, transform)
}

// mapFrames applies transform to frames holding stream indices lo,
// lo+1, …, appending the frames it keeps to out, which it returns.
func mapFrames(out *video.Video, lo int, frames []*video.Frame, transform func(i int, f *video.Frame) (*video.Frame, error)) (*video.Video, error) {
	for i, f := range frames {
		g, err := transform(lo+i, f)
		if err != nil {
			return nil, err
		}
		if g != nil {
			out.Append(g)
		}
	}
	return out, nil
}

// streamMapRange is streamMap restricted to the (frame window × tile
// set) rectangle the plan declared: frames outside [lo, hi) are never
// decoded (except the GOP seed run in front of it), and with tiles
// non-nil (vdbms.InputTiles) only those tiles need be valid. transform
// receives absolute stream indices. Recently decoded inputs are served
// from the engine's decode cache without touching the codec.
func (e *Engine) streamMapRange(in *vdbms.Input, lo, hi int, tiles []int, transform func(i int, f *video.Frame) (*video.Frame, error)) (*video.Video, error) {
	n := len(in.Encoded.Frames)
	lo = max(lo, 0)
	hi = max(min(hi, n), lo)
	out := video.NewVideo(in.Encoded.Config.FPS)
	// Every path below records exactly one request-level decode span
	// (the shared branch records it inside vdbms.Decode), so span counts
	// per streamMapRange call are invariant across modes.
	if cached, ok := e.cache.get(in, lo, hi); ok {
		// A locally resident full-frame window serves any tile set.
		sp := metrics.StartSpan(metrics.StageDecode)
		sp.Trace(in.Trace)
		sp.Cache(true)
		sp.Frames(len(cached.Frames))
		sp.End()
		return mapFrames(out, lo, cached.Frames, transform)
	}
	// When the driver runs with its shared decoded-input cache, use it
	// as the decode layer: concurrent instances over the same rectangle
	// decode it exactly once (single-flight), only the declared tiles
	// reconstruct, and the cache's byte budget bounds residency. With no
	// active cache — the paper-faithful sequential mode — the engine
	// keeps its streaming (memory-flat) full-frame path below and never
	// forces a materialization itself.
	if in.SharedCache() {
		shared, err := vdbms.Decode(in, lo, hi, tiles)
		if err != nil {
			return nil, err
		}
		return mapFrames(out, lo, shared.Frames, transform)
	}
	// Streaming fallback: seek to the keyframe governing the window
	// start, decode the seed run for reference state only, and stop at
	// the window end — frames past hi are never touched. The decode
	// span covers the fused decode+transform loop: the engine's
	// streaming evaluation does not separate the two.
	sp := metrics.StartSpan(metrics.StageDecode)
	defer sp.End() // on the error returns too, with the frames decoded so far
	sp.Trace(in.Trace)
	sp.Cache(false)
	dec, err := newStreamDecoder(in)
	if err != nil {
		return nil, err
	}
	seed := 0
	if lo < hi {
		seed = in.Encoded.KeyframeBefore(lo)
	}
	dec.pos = seed
	decoded := video.NewVideo(in.Encoded.Config.FPS)
	for dec.pos < hi {
		f, ok, err := dec.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		sp.Frames(1)
		idx := f.Index
		decoded.Append(f.Clone())
		// Append stamps window-relative indices; cached frames must keep
		// their absolute ones (the detector seeds its RNG from them).
		decoded.Frames[len(decoded.Frames)-1].Index = idx
		if idx < lo {
			continue // seed run
		}
		g, err := transform(idx, f)
		if err != nil {
			return nil, err
		}
		if g != nil {
			out.Append(g)
		}
	}
	e.cache.put(in, decoded, seed, dec.pos)
	return out, nil
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

func newStreamDecoder(in *vdbms.Input) (*streamDecoder, error) {
	d, err := newCodecDecoder(in)
	if err != nil {
		return nil, err
	}
	return &streamDecoder{in: in, dec: d}, nil
}

func (s *streamDecoder) next() (*video.Frame, bool, error) {
	if s.pos >= len(s.in.Encoded.Frames) {
		return nil, false, nil
	}
	f, err := s.dec.Decode(s.in.Encoded.Frames[s.pos].Data)
	if err != nil {
		return nil, false, err
	}
	f.Index = s.pos
	s.pos++
	return f, true, nil
}
