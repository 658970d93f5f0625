package vcd

import (
	"bytes"
	"fmt"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/vdbms"
	"repro/internal/video"
)

// resultSink is the driver's sink for one instance. Per §3.2 the result
// of a query is an H264- or HEVC-encoded video in both modes; streaming
// mode merely discards it instead of persisting it, so encoding is
// always part of the measured execution. Every result reaches the
// encoder through one resultWriter, whether the engine writes it frame
// by frame (vdbms.FrameSink) or emits it whole (vdbms.Sink).
type resultSink struct {
	opt   Options
	query queries.QueryID
	idx   int
	// capture, non-nil when the instance is sampled for validation,
	// receives every result's frames.
	capture *InstanceValidation
	frames  int // written so far, over all results
	writers []*resultWriter
}

var _ vdbms.FrameSink = (*resultSink)(nil)

// Open implements vdbms.FrameSink. The engine hands over each frame it
// writes (DESIGN.md §5.5 "Ownership"), so the writer recycles it.
func (s *resultSink) Open(key string, fps int) (video.Writer, error) {
	return s.open(key, fps, true), nil
}

func (s *resultSink) open(key string, fps int, owned bool) *resultWriter {
	w := &resultWriter{sink: s, key: key, fps: fps, owned: owned}
	if s.capture != nil {
		w.kept = video.NewVideo(fps)
		s.capture.Outputs[key] = w.kept
	}
	s.writers = append(s.writers, w)
	return w
}

// Emit implements vdbms.Sink: the whole video through the same writer.
// The video stays the engine's: its frames are encoded, never recycled.
func (s *resultSink) Emit(key string, v *video.Video) error {
	w := s.open(key, v.FPS, false)
	for _, f := range v.Frames {
		if err := w.Write(f); err != nil {
			return err
		}
	}
	return w.Close()
}

// abandon ends the result.encode span of every result the engine left
// open — it failed midway: a failed result is a span too — and hands
// its encoder's state back.
func (s *resultSink) abandon() {
	for _, w := range s.writers {
		w.sp.End()
		w.release()
	}
}

// resultWriter encodes one result as its frames arrive and, on Close,
// muxes the container payload — the encoded form every query result
// takes in both result modes — and persists it in WriteMode. A written
// frame belongs to the writer: it is encoded before Write returns, then
// kept if the instance is sampled for validation and otherwise, when
// the engine handed it over (Open), recycled into video's frame
// registry. The result.encode span runs from the first
// Write to the mux, so under a streaming engine it overlaps the decode
// span of the loop that feeds it.
type resultWriter struct {
	sink *resultSink
	key  string
	fps  int
	enc  *codec.Encoder // built at the first frame, from its dimensions
	out  *codec.Encoded
	sp   metrics.Span
	kept *video.Video // the written frames; nil unless sampled for validation
	// owned: the engine hands each written frame over (Open), so one
	// that is not kept goes back to the registry once encoded.
	owned bool
}

func (w *resultWriter) Write(f *video.Frame) error {
	if w.enc == nil {
		w.sp = metrics.StartSpan(metrics.StageResultEncode)
		enc, err := codec.NewEncoder(codec.Config{Width: f.W, Height: f.H, FPS: w.fps, QP: 18})
		if err != nil {
			return fmt.Errorf("vcd: encoding result: %w", err)
		}
		w.enc, w.out = enc, &codec.Encoded{Config: enc.Config()}
	}
	ef, err := w.enc.Encode(f)
	if err != nil {
		return fmt.Errorf("vcd: encoding result: %w", err)
	}
	f.Index = len(w.out.Frames) // as video.Video.Append stamps it
	w.out.Frames = append(w.out.Frames, ef)
	w.sp.Frames(1)
	w.sink.frames++
	if w.kept != nil {
		w.kept.Frames = append(w.kept.Frames, f)
	} else if w.owned {
		video.PutFrame(f)
	}
	return nil
}

// release hands the encoder's pooled state back once the result has its
// last frame, or never will.
func (w *resultWriter) release() {
	if w.enc != nil {
		w.enc.Release()
	}
}

// Close completes the result. One that had no frame is the nil payload.
func (w *resultWriter) Close() error {
	w.release()
	var buf bytes.Buffer
	if w.out != nil {
		if err := container.Mux(&buf, w.out, nil); err != nil {
			return err
		}
		w.sp.Bytes(int64(buf.Len()))
		w.sp.End()
	}
	if w.sink.opt.Mode == WriteMode {
		return w.sink.opt.ResultStore.Write(resultName(w.sink.query, w.sink.idx, w.key), buf.Bytes())
	}
	return nil
}
