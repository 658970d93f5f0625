package video

import "fmt"

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
