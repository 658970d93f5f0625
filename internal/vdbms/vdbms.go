// Package vdbms defines the contract between the Visual Road driver and
// a video database management system under test, along with the shared
// plumbing (inputs, sinks, capability matrices) used by the three
// bundled engines.
//
// The bundled engines emulate the architectures of the three systems
// the paper benchmarks:
//
//   - scannerlike: batch dataflow with eager materialization (Scanner)
//   - lightdblike: lazy streaming functional algebra over a spherical
//     coordinate model (LightDB)
//   - noscopelike: specialized model-cascade inference engine (NoScope)
//
// Each engine really executes queries on pixel data; their differing
// performance profiles emerge from their architectures (materialize vs
// stream vs skip), not from synthetic delays.
package vdbms

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/queries"
	"repro/internal/vcity"
	"repro/internal/video"
)

// Input is one input video as staged by the VCD: the encoded container
// payload plus the execution environment tying it back to the
// simulation (for ML substrates and semantic validation).
type Input struct {
	Name     string
	Encoded  *codec.Encoded
	Captions []byte
	Env      *queries.Env
	// Source, when set by the staging layer, serves decoded frames for
	// this input (typically from the VCD's shared decoded-input cache).
	// Engines reach it through Decode; a nil Source decodes the payload
	// directly.
	Source DecodedSource
	// Trace is the distributed trace ID of the query instance this
	// handle was staged for; decode spans record under it. The driver
	// sets it on per-instance shallow copies — the underlying handle is
	// shared across instances and must not carry per-instance state.
	Trace metrics.TraceID
	// Live, when set, is the input's live stream (online mode), read
	// once in order; Encoded then serves only its configuration and
	// length, and Decode refuses the input.
	Live FrameSource
}

// FrameSource is a forward-only source of decoded frames: Next returns
// the next one, the caller's, stamped with its source index (a frame
// lost in transit is skipped), and io.EOF after the last.
type FrameSource interface {
	Next() (*video.Frame, error)
}

// DecodedSource serves decode requests for staged inputs — the VCD's
// dataset, which fronts its shared (interval × tile-set)-keyed decoded
// cache. The returned video holds exactly req.Hi−req.Lo full-dimension
// frames in stream order with absolute indices; on tile-mode inputs the
// regions outside req.Tiles are undefined. Frames may share pixel
// storage with other consumers: callers must treat the planes as
// read-only (every bundled engine derives new frames rather than
// mutating inputs).
type DecodedSource interface {
	Decoded(in *Input, req codec.Request) (*video.Video, error)
	// SharedCache reports whether requests are served through an active
	// shared cache (single-flight, byte-budgeted) rather than decoded per
	// call.
	SharedCache() bool
}

// Camera returns the input's originating camera.
func (in *Input) Camera() *vcity.Camera { return in.Env.Camera }

// QueryInstance is one instance of a benchmark query: the query, its
// sampled parameters, and its input(s). Most queries take one input;
// Q8 takes all traffic camera videos, Q9 the four panoramic sub-videos.
type QueryInstance struct {
	Query  queries.QueryID
	Params queries.Params
	Inputs []*Input
	// Boxes is the precomputed bounding-box input B = Q2c(V) the VCD
	// stages for Q6(a), generated offline by the driver's reference
	// implementation. It is exposed in both formats of §4.1.1; engines
	// may consume either.
	Boxes *BoxesInput
}

// BoxesInput carries the VCD's precomputed Q6(a) bounding-box input in
// its two interchange formats.
type BoxesInput struct {
	// Encoded is the bounding-box video (ω background, class-colored
	// boxes), codec-encoded like any other video input.
	Encoded *codec.Encoded
	// Serialized is the sequence of bounding box class identifiers and
	// coordinates (see queries.ParseDetections).
	Serialized []byte
}

// Sink receives query results. Implementations encode-and-persist
// (write mode) or discard (streaming mode).
type Sink interface {
	// Emit delivers one output video under a key (most queries emit
	// one output under "out"; Q7 emits one per object class).
	Emit(key string, v *video.Video) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(key string, v *video.Video) error

// Emit invokes the function.
func (f SinkFunc) Emit(key string, v *video.Video) error { return f(key, v) }

// FrameSink is implemented by sinks that take a result a frame at a
// time — the driver's, which encodes each frame as it is written, so a
// result costs the engine O(1) frames instead of O(clip). Engines reach
// it through OpenResult.
type FrameSink interface {
	// Open starts the result stored under key. A written frame belongs
	// to the writer (it stamps Index as video.Video.Append does); Close
	// completes the result, and a result abandoned before Close — the
	// engine failed midway — is never delivered.
	Open(key string, fps int) (video.Writer, error)
}

// OpenResult is how an engine spells a result it produces frame by
// frame: the sink's own writer when it is a FrameSink, otherwise a
// writer that collects the frames and Emits the video on Close.
func OpenResult(sink Sink, key string, fps int) (video.Writer, error) {
	if fs, ok := sink.(FrameSink); ok {
		return fs.Open(key, fps)
	}
	return &collector{sink: sink, key: key, v: video.NewVideo(fps)}, nil
}

type collector struct {
	sink Sink
	key  string
	v    *video.Video
}

func (c *collector) Write(f *video.Frame) error { c.v.Append(f); return nil }
func (c *collector) Close() error               { return c.sink.Emit(c.key, c.v) }

// System is a VDBMS under benchmark.
type System interface {
	// Name identifies the engine in reports.
	Name() string
	// Supports reports whether the engine can execute the query at
	// all. Unsupported queries are recorded as gaps in the capability
	// comparison (Figure 5), not failures.
	Supports(q queries.QueryID) bool
	// Execute runs one query instance, emitting results to the sink.
	Execute(inst *QueryInstance, sink Sink) error
	// QueryLOC returns the engine-specific lines of code needed to
	// express the query (query code, extension code), reproducing the
	// paper's Figure 7 methodology.
	QueryLOC(q queries.QueryID) (query, extension int)
}

// BatchLimiter is implemented by engines that cannot accept arbitrarily
// many query instances at once (e.g. the LightDB-like engine fails past
// 40 videos on Q3/Q4 for GPU-memory reasons, which the VCD works around
// by splitting batches, as the paper describes).
type BatchLimiter interface {
	// MaxBatchSize returns the largest batch the engine accepts for
	// the query, or 0 for unlimited.
	MaxBatchSize(q queries.QueryID) int
}

// ErrUnsupported is returned by Execute for queries the engine cannot
// express.
type ErrUnsupported struct {
	System string
	Query  queries.QueryID
}

// Error describes the capability gap. Decode's, for a live input,
// names neither system nor query.
func (e *ErrUnsupported) Error() string {
	if e.System == "" {
		return "vdbms: a live input cannot be decoded as stored video"
	}
	return fmt.Sprintf("vdbms: %s does not support %s", e.System, e.Query)
}

// ErrResource is returned when an engine fails due to resource
// exhaustion (e.g. the Scanner-like engine's Q4 memory failure or the
// LightDB-like engine's 40-video batch limit).
type ErrResource struct {
	System string
	Query  queries.QueryID
	Reason string
}

// Error describes the resource failure.
func (e *ErrResource) Error() string {
	return fmt.Sprintf("vdbms: %s failed on %s: %s", e.System, e.Query, e.Reason)
}

// Decode is the one way engines obtain raw frames: it decodes the
// (frame window × tile set) rectangle of an input that the query plan
// declared up front (queries.FrameWindow, queries.ROI via InputTiles).
// The whole clip is the window [0, len(in.Encoded.Frames)); nil tiles
// selects full frames. Inputs staged with a Source are served from it —
// the VCD's shared, single-flight decoded cache, so concurrent
// instances over the same rectangle decode it exactly once — and a nil
// Source decodes the payload directly.
//
// Every call records one request-level decode span, cache hits
// included, so span counts are invariant across execution modes (the
// codec.gop stage measures the actual reconstruction work). A live
// input is refused with *ErrUnsupported: it is not stored video.
func Decode(in *Input, lo, hi int, tiles []int) (*video.Video, error) {
	if in.Live != nil {
		return nil, &ErrUnsupported{}
	}
	sp := metrics.StartSpan(metrics.StageDecode)
	defer sp.End() // a failed request is a span too
	sp.Trace(in.Trace)
	req := codec.Request{Lo: lo, Hi: hi, Tiles: tiles, Workers: parallel.Default()}
	var v *video.Video
	var err error
	if in.Source != nil {
		v, err = in.Source.Decoded(in, req)
	} else {
		v, err = in.Encoded.DecodeRequest(req)
	}
	if err != nil {
		return nil, err
	}
	sp.Frames(len(v.Frames))
	return v, nil
}

// SharedCache reports whether Decode on this input goes through an
// active shared decoded cache. Streaming engines ask before decoding:
// with no cache — the paper-faithful sequential mode — they keep their
// own incremental, memory-flat path instead of forcing a
// materialization the driver never asked for.
func (in *Input) SharedCache() bool {
	return in.Source != nil && in.Source.SharedCache()
}

// InputTiles maps a declared ROI rectangle to the tile set Decode
// should reconstruct. nil means full frames: the input is untiled, or
// the rectangle touches every tile of the grid.
func InputTiles(in *Input, x1, y1, x2, y2 int) []int {
	cfg := &in.Encoded.Config
	if !cfg.Tiled() {
		return nil
	}
	tiles := cfg.TilesCovering(x1, y1, x2, y2)
	if len(tiles) == cfg.TileCount() {
		return nil
	}
	return tiles
}
