package video

import (
	"fmt"
	"io"
)

// Reader is a forward-only iterator over decoded frames. Next returns
// io.EOF after the final frame. Online benchmark sources implement
// Reader with rate throttling; offline sources allow the whole sequence
// to be drained immediately.
type Reader interface {
	Next() (*Frame, error)
}

// Writer consumes decoded frames, e.g. into an encoder or a sink.
type Writer interface {
	Write(*Frame) error
	Close() error
}

// Video is an in-memory decoded frame sequence with a constant frame
// rate. It is the working representation used by reference query
// implementations; engines are free to stream instead.
type Video struct {
	Frames []*Frame
	FPS    int
}

// NewVideo returns an empty video at the given frame rate.
func NewVideo(fps int) *Video {
	if fps <= 0 {
		panic(fmt.Sprintf("video: invalid frame rate %d", fps))
	}
	return &Video{FPS: fps}
}

// Append adds a frame, stamping its Index.
func (v *Video) Append(f *Frame) {
	f.Index = len(v.Frames)
	v.Frames = append(v.Frames, f)
}

// Duration returns the video duration in seconds.
func (v *Video) Duration() float64 {
	return float64(len(v.Frames)) / float64(v.FPS)
}

// Resolution returns the width and height of the video, taken from the
// first frame; an empty video reports (0, 0).
func (v *Video) Resolution() (w, h int) {
	if len(v.Frames) == 0 {
		return 0, 0
	}
	return v.Frames[0].W, v.Frames[0].H
}

// Clone deep-copies the video.
func (v *Video) Clone() *Video {
	out := NewVideo(v.FPS)
	for _, f := range v.Frames {
		out.Append(f.Clone())
	}
	return out
}

// Reader returns a forward-only iterator over the video's frames.
func (v *Video) Reader() Reader {
	return &sliceReader{frames: v.Frames}
}

type sliceReader struct {
	frames []*Frame
	pos    int
}

func (r *sliceReader) Next() (*Frame, error) {
	if r.pos >= len(r.frames) {
		return nil, io.EOF
	}
	f := r.frames[r.pos]
	r.pos++
	return f, nil
}

// FuncWriter adapts a function to the Writer interface.
type FuncWriter struct {
	Fn      func(*Frame) error
	CloseFn func() error
}

// Write invokes the wrapped function.
func (w *FuncWriter) Write(f *Frame) error { return w.Fn(f) }

// Close invokes the wrapped close function if present.
func (w *FuncWriter) Close() error {
	if w.CloseFn != nil {
		return w.CloseFn()
	}
	return nil
}

// Discard is a Writer that drops all frames; it backs the benchmark's
// streaming (discard) execution mode.
var Discard Writer = &FuncWriter{Fn: func(*Frame) error { return nil }}
