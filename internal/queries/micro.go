package queries

import (
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/render"
	"repro/internal/vcity"
	"repro/internal/video"
)

// Env carries the context a query execution needs beyond its input
// video: the generating city (for ground truth), the camera the input
// was captured by, and the ML substrates. StartTime is the simulation
// time of the input's first frame.
type Env struct {
	City      *vcity.City
	Camera    *vcity.Camera
	Detector  *detect.Detector
	StartTime float64
}

// FrameTime returns the simulation time of frame i of a video at fps.
func (e *Env) FrameTime(i, fps int) float64 {
	return e.StartTime + float64(i)/float64(fps)
}

// ClassColor returns the constant color c_j the benchmark assigns to an
// object class for box rendering.
func ClassColor(c vcity.ObjectClass) video.Color {
	if c == vcity.ClassVehicle {
		return video.Color{R: 220, G: 40, B: 40}
	}
	return video.Color{R: 40, G: 200, B: 60}
}

// RunQ1 crops the input spatially to the rectangle (x1, y1)–(x2, y2)
// and temporally to [t1, t2), where times are relative to the start of
// the video.
func RunQ1(v *video.Video, p Params) (*video.Video, error) {
	if err := (&p).Validate(Q1, widthOf(v), heightOf(v), v.Duration()); err != nil {
		return nil, err
	}
	f1, f2 := frameSpan(p.T1, p.T2, v.FPS, len(v.Frames))
	window := &video.Video{FPS: v.FPS, Frames: v.Frames[f1:f2]}
	return RunQ1On(window, p)
}

// RunQ2a converts the input to grayscale by dropping chroma: the pixel
// function maps (y, u, v) to (y, 0, 0) — neutral chroma in our
// studio-range representation. The fused kernel copies luma and floods
// chroma, identical to Frame.Grayscale.
func RunQ2a(v *video.Video) *video.Video {
	return FMap(v, grayFrame)
}

// RunQ2b applies a d×d Gaussian blur to every frame using the separable
// formulation (two 1D passes), which is mathematically identical to the
// full kernel.
func RunQ2b(v *video.Video, p Params) (*video.Video, error) {
	if err := (&p).Validate(Q2b, widthOf(v), heightOf(v), v.Duration()); err != nil {
		return nil, err
	}
	return FMap(v, NewGaussianBlur(p.D)), nil
}

// gaussianKernel builds a normalized 1D Gaussian of length d with
// σ = d/4 (a conventional choice keeping ~95% of mass inside). Its bits
// are the same on every architecture and CPU (TestBlurGolden): sigma,
// mid and den are rounded explicitly, so no compiler fuses a product of
// theirs into a multiply-add, and the exponential is gaussExp, not
// math.Exp.
func gaussianKernel(d int) []float64 {
	sigma := float64(float64(d) / 4)
	k := make([]float64, d)
	sum := 0.0
	mid := float64(float64(d-1) / 2)
	den := float64(2 * sigma * sigma)
	for i := range k {
		x := float64(i) - mid
		k[i] = gaussExp(-x * x / den)
		sum += k[i]
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// gaussExp is e^x for the kernel's exponents, x ∈ (−2, 0], computed as
// math.Exp computes it on an amd64 CPU with FMA (Go's math/exp_amd64.s,
// after Shibata's SLEEF): its fused steps are math.FMA, which rounds once
// on every machine, and every other product is rounded explicitly. So
// the kernel has that machine's bits everywhere, where math.Exp itself
// runs one of three polynomials — amd64 with FMA, amd64 without, arm64 —
// that differ in the last bit of several of the kernels of Table 3's
// range.
func gaussExp(x float64) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2U  = 0.69314718055966295651160180568695068359375
		ln2L  = 0.28235290563031577122588448175013436025525412068e-12
	)
	e := math.RoundToEven(float64(log2e * x))
	x = math.FMA(-ln2U, e, x)
	x = math.FMA(-ln2L, e, x)
	x *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range [...]float64{
		1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1,
	} {
		p = math.FMA(p, x, c)
	}
	x = float64(x * p)
	for i := 0; i < 3; i++ {
		x = float64(x * (x + 2))
	}
	return math.Ldexp(math.FMA(x, x+2, 1), int(e))
}

// RunQ2c produces the bounding-box video: for every frame, the detector
// is applied and an output frame is produced whose pixels are the class
// color c_j inside each detected box of a requested class and the null
// color ω elsewhere.
func RunQ2c(v *video.Video, p Params, env *Env) (*video.Video, error) {
	if err := (&p).Validate(Q2c, widthOf(v), heightOf(v), v.Duration()); err != nil {
		return nil, err
	}
	if env == nil || env.Detector == nil || env.Camera == nil || env.City == nil {
		return nil, fmt.Errorf("queries: Q2(c) requires an execution environment with a detector")
	}
	want := make(map[string]bool, len(p.Classes))
	for _, c := range p.Classes {
		want[c.String()] = true
	}
	tile := env.City.TileOf(env.Camera)
	// Detection is deterministic in (seed, camera, frame index) and
	// stateless per call, so frames run concurrently and reassemble in
	// order.
	frames, _ := parallel.Map(parallel.Default(), len(v.Frames), func(i int) (*video.Frame, error) {
		f := v.Frames[i]
		t := env.FrameTime(i, v.FPS)
		obs := tile.GroundTruth(env.Camera, t, f.W, f.H)
		dets := env.Detector.Detect(f, env.Camera.ID, obs)
		bf := video.NewFrame(f.W, f.H) // initialized to ω (black)
		bf.Index = i
		for _, d := range dets {
			if !want[d.Class] {
				continue
			}
			cls := vcity.ClassVehicle
			if d.Class == vcity.ClassPedestrian.String() {
				cls = vcity.ClassPedestrian
			}
			render.FillRect(bf, d.Box, ClassColor(cls))
		}
		return bf, nil
	})
	out := video.NewVideo(v.FPS)
	for _, bf := range frames {
		out.Append(bf)
	}
	return out, nil
}

// DetectionsQ2c returns the raw detections per frame (the serialized
// form of the bounding box video the VCD also exposes for Q6(a)).
func DetectionsQ2c(v *video.Video, p Params, env *Env) ([][]metrics.Detection, error) {
	if err := (&p).Validate(Q2c, widthOf(v), heightOf(v), v.Duration()); err != nil {
		return nil, err
	}
	tile := env.City.TileOf(env.Camera)
	want := make(map[string]bool, len(p.Classes))
	for _, c := range p.Classes {
		want[c.String()] = true
	}
	out := make([][]metrics.Detection, len(v.Frames))
	for i, f := range v.Frames {
		t := env.FrameTime(i, v.FPS)
		obs := tile.GroundTruth(env.Camera, t, f.W, f.H)
		for _, d := range env.Detector.Detect(f, env.Camera.ID, obs) {
			if want[d.Class] {
				out[i] = append(out[i], d)
			}
		}
	}
	return out, nil
}

// RunQ2d performs background masking: each frame is compared against
// the mean of its m-frame window; pixels whose relative difference
// |(p_v - p_b) / p_v| is below ε are replaced with ω. The window slides
// (maskstream.go): a frame costs the same whatever m is.
func RunQ2d(v *video.Video, p Params) (*video.Video, error) {
	if err := (&p).Validate(Q2d, widthOf(v), heightOf(v), v.Duration()); err != nil {
		return nil, err
	}
	return maskVideo(v, p.M, p.Epsilon, parallel.Default()), nil
}

// maskBelow implements the Q2(d) threshold test on luma: true when the
// pixel's relative deviation from the background is below ε.
func maskBelow(pv, pb Pixel, eps float64) bool {
	den := float64(pv.Y)
	if den == 0 {
		den = 1
	}
	return math.Abs(float64(pv.Y)-float64(pb.Y))/den < eps
}

// RunQ3 partitions frames into (dx, dy) regions, re-encodes each region
// at its assigned bitrate via the encoder subquery, and recombines the
// result.
func RunQ3(v *video.Video, p Params, preset codec.Preset) (*video.Video, error) {
	if err := (&p).Validate(Q3, widthOf(v), heightOf(v), v.Duration()); err != nil {
		return nil, err
	}
	regions, err := Partition(v, p.DX, p.DY)
	if err != nil {
		return nil, err
	}
	kbps := make([]int, len(p.Bitrates))
	for i, b := range p.Bitrates {
		kbps[i] = b / 1000
		if kbps[i] < 1 {
			kbps[i] = 1
		}
	}
	re, err := Subquery(regions, kbps, preset)
	if err != nil {
		return nil, err
	}
	w, h := v.Resolution()
	return Recombine(re, w, h, v.FPS)
}

// RunQ4 upsamples every frame to (αRx, βRy) with bilinear interpolation.
func RunQ4(v *video.Video, p Params) (*video.Video, error) {
	if err := (&p).Validate(Q4, widthOf(v), heightOf(v), v.Duration()); err != nil {
		return nil, err
	}
	w, h := v.Resolution()
	return Interpolate(v, w*p.Alpha, h*p.Beta), nil
}

// RunQ5 downsamples every frame to (Rx/α, Ry/β).
func RunQ5(v *video.Video, p Params) (*video.Video, error) {
	if err := (&p).Validate(Q5, widthOf(v), heightOf(v), v.Duration()); err != nil {
		return nil, err
	}
	w, h := v.Resolution()
	nw, nh := w/p.Alpha, h/p.Beta
	if nw < 1 {
		nw = 1
	}
	if nh < 1 {
		nh = 1
	}
	return Sample(v, nw, nh), nil
}

// RunQ6a overlays a bounding-box video B onto the input via the
// ω-coalesce projection (Equation 1), using the fused coalesce kernel
// (byte-identical to JoinP with OmegaCoalesce).
func RunQ6a(v, boxes *video.Video) (*video.Video, error) {
	return joinVideos(v, boxes, coalesceFrame)
}

// RunQ6b overlays the WebVTT captions onto the input. Cue line and
// position settings place each caption as percentages of the frame;
// unset (auto) settings render bottom-center per the WebVTT defaults.
func RunQ6b(v *video.Video, p Params) (*video.Video, error) {
	if err := (&p).Validate(Q6b, widthOf(v), heightOf(v), v.Duration()); err != nil {
		return nil, err
	}
	textColor := video.Color{R: 250, G: 250, B: 250}
	frames, _ := parallel.Map(parallel.Default(), len(v.Frames), func(i int) (*video.Frame, error) {
		f := v.Frames[i]
		t := float64(i) / float64(v.FPS)
		g := copyFrame(f)
		for _, cue := range p.Captions.ActiveAt(t) {
			scale := f.H / 180
			if scale < 1 {
				scale = 1
			}
			tw := render.TextWidth(cue.Text, scale)
			th := render.TextHeight(scale)
			x := (f.W - tw) / 2
			y := f.H - 2*th
			if cue.Position >= 0 {
				x = int(cue.Position/100*float64(f.W)) - tw/2
			}
			if cue.Line >= 0 {
				y = int(cue.Line / 100 * float64(f.H-th))
			}
			render.DrawText(g, x, y, scale, cue.Text, textColor)
		}
		return g, nil
	})
	out := video.NewVideo(v.FPS)
	for _, g := range frames {
		out.Append(g)
	}
	return out, nil
}

func widthOf(v *video.Video) int  { w, _ := v.Resolution(); return w }
func heightOf(v *video.Video) int { _, h := v.Resolution(); return h }
