package render

import (
	"repro/internal/vcity"
	"repro/internal/video"
)

// Capture renders the full benchmark-duration video of one camera: one
// frame per capture interval at the city's configured resolution and
// frame rate.
func Capture(city *vcity.City, cam *vcity.Camera) *video.Video {
	return CaptureFrames(city, cam, 0, city.Params.FrameCount())
}

// CaptureFrames renders n frames of cam starting at time t0.
func CaptureFrames(city *vcity.City, cam *vcity.Camera, t0 float64, n int) *video.Video {
	p := city.Params
	r := New(city, p.Width, p.Height)
	out := video.NewVideo(p.FPS)
	for i := 0; i < n; i++ {
		t := t0 + float64(i)/float64(p.FPS)
		out.Append(r.Frame(cam, t))
	}
	return out
}
