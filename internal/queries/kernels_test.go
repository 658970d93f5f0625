package queries

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/vcity"
	"repro/internal/video"
)

// TestMaskTablesMatchMaskBelow is the mask test's identity, exhaustive:
// for every sample, every sum an n-frame window can reach and a spread
// of thresholds, the table form decides what maskBelow decides on the
// mean AggregateMean computes. ε = 0.5 holds the case the tables exist
// for: pv = 2 one level off its background is 0.5 < 0.5, not masked.
func TestMaskTablesMatchMaskBelow(t *testing.T) {
	for _, eps := range []float64{0.01, 0.05, 0.2, 0.25, 0.5, 0.99} {
		table := newMaskTable(eps)
		for _, n := range []int{1, 2, 7, 15, 60} {
			var b maskBounds
			b.set(table, n)
			for pv := 0; pv < 256; pv++ {
				for sum := 0; sum <= 255*n; sum++ {
					mean := byte((sum + n/2) / n)
					want := maskBelow(Pixel{Y: byte(pv)}, Pixel{Y: mean}, eps)
					if got := b.masked(byte(pv), int32(sum)); got != want {
						t.Fatalf("eps=%g n=%d pv=%d sum=%d (mean %d): tables say masked=%v, maskBelow says %v",
							eps, n, pv, sum, mean, got, want)
					}
				}
			}
		}
	}
	var b maskBounds
	b.set(newMaskTable(0.5), 1)
	if b.masked(2, 1) || b.masked(2, 3) || !b.masked(2, 2) {
		t.Error("eps=0.5, pv=2: one level off must stay unmasked, equal must mask")
	}
}

// TestMaskStreamMatchesClosureForm holds both drivers of the sliding
// window — the streaming operator and RunQ2d's row bands — to the
// closure form, for windows shorter than, equal to and longer than the
// clip, at one scheduler thread and at eight, and at band counts the
// host's CPU count would not reach by itself.
func TestMaskStreamMatchesClosureForm(t *testing.T) {
	for _, dim := range frameDims {
		for _, frames := range []int{15, 23} {
			v := maskTestVideo(frames, dim.w, dim.h, int64(frames))
			for _, m := range []int{2, 3, 7, 15, 40, 60} {
				eps := []float64{0.05, 0.2, 0.5}[m%3]
				label := fmt.Sprintf("%dx%d, %d frames, m=%d, eps=%g", dim.w, dim.h, frames, m, eps)
				want := maskClosureForm(v, m, eps)
				for _, procs := range []int{1, 8} {
					restore := runtime.GOMAXPROCS(procs)
					videosEqual(t, fmt.Sprintf("MaskStream: %s, GOMAXPROCS=%d", label, procs), want, maskStreamed(v, m, eps))
					got, err := RunQ2d(v, Params{M: m, Epsilon: eps})
					runtime.GOMAXPROCS(restore)
					if err != nil {
						t.Fatal(err)
					}
					videosEqual(t, fmt.Sprintf("RunQ2d: %s, GOMAXPROCS=%d", label, procs), want, got)
				}
				for _, workers := range []int{1, 2, 3, 8} {
					videosEqual(t, fmt.Sprintf("maskVideo, %d bands: %s", workers, label), want, maskVideo(v, m, eps, workers))
				}
			}
		}
	}

	if out, err := RunQ2d(video.NewVideo(15), Params{M: 4, Epsilon: 0.2}); err != nil || len(out.Frames) != 0 {
		t.Errorf("RunQ2d of an empty video: %d frames, err %v", len(out.Frames), err)
	}

	// The fixture must put samples on both sides of the test.
	v := maskTestVideo(15, 64, 48, 15)
	masked, kept := 0, 0
	for _, f := range maskStreamed(v, 7, 0.2).Frames {
		for i, y := range f.Y {
			if y == Omega.Y && v.Frames[f.Index].Y[i] != Omega.Y {
				masked++
			} else {
				kept++
			}
		}
	}
	if masked < 1000 || kept < 1000 {
		t.Errorf("fixture is one-sided: %d samples masked, %d kept", masked, kept)
	}
}

// boxDets builds n detections with integer and fractional, even and odd
// coordinates; some overlap, some cross the frame's edges, some are
// empty or inverted, and some are of a class nobody wants.
func boxDets(rng *rand.Rand, n, w, h int) []metrics.Detection {
	classes := []string{vcity.ClassVehicle.String(), vcity.ClassPedestrian.String(), "bicycle"}
	dets := make([]metrics.Detection, n)
	for i := range dets {
		x := float64(rng.Intn(w+8)-4) + float64(rng.Intn(4))/4
		y := float64(rng.Intn(h+8)-4) + float64(rng.Intn(4))/4
		dets[i] = metrics.Detection{
			Class: classes[rng.Intn(len(classes))],
			Box: geom.Rect{
				MinX: x, MinY: y,
				MaxX: x + float64(rng.Intn(w/2+3)-1), MaxY: y + float64(rng.Intn(h/2+3)-1),
			},
		}
	}
	return dets
}

// TestOverlayBoxesMatchesClosureForm: the box-bounded overlay equals the
// full-frame join with the rendered boxes frame — JoinPFrame with
// OmegaCoalesce, and its fused form — fringe included.
func TestOverlayBoxesMatchesClosureForm(t *testing.T) {
	want := map[string]bool{vcity.ClassVehicle.String(): true, vcity.ClassPedestrian.String(): true}
	for _, dim := range frameDims {
		rng := rand.New(rand.NewSource(int64(dim.w*1000 + dim.h)))
		f := noiseFrame(dim.w, dim.h, 4, 404)
		fixed := [][]metrics.Detection{
			nil,
			// Odd corners; two boxes overlapping; one cut by two edges.
			{{Class: "vehicle", Box: geom.Rect{MinX: 1, MinY: 1, MaxX: 4, MaxY: 2}}},
			{
				{Class: "vehicle", Box: geom.Rect{MinX: 3, MinY: 5, MaxX: 31, MaxY: 22}},
				{Class: "pedestrian", Box: geom.Rect{MinX: 18, MinY: 11, MaxX: 45, MaxY: 33}},
				{Class: "vehicle", Box: geom.Rect{MinX: float64(dim.w) - 7, MinY: float64(dim.h) - 5, MaxX: float64(dim.w) + 9, MaxY: float64(dim.h) + 9}},
			},
		}
		for trial := 0; trial < 40; trial++ {
			var dets []metrics.Detection
			if trial < len(fixed) {
				dets = fixed[trial]
			} else {
				dets = boxDets(rng, 1+rng.Intn(6), dim.w, dim.h)
			}
			for _, classes := range []map[string]bool{want, nil} {
				bf := RenderBoxesFrame(dim.w, dim.h, f.Index, dets, classes)
				got := OverlayBoxes(f, dets, classes)
				if !framesEqual(JoinPFrame(f, bf, OmegaCoalesce), got) {
					t.Fatalf("%dx%d trial %d: OverlayBoxes diverges from JoinPFrame(f, RenderBoxesFrame, OmegaCoalesce) for %+v", dim.w, dim.h, trial, dets)
				}
				if !framesEqual(coalesceFrame(f, bf), got) {
					t.Fatalf("%dx%d trial %d: OverlayBoxes diverges from coalesceFrame", dim.w, dim.h, trial)
				}
				RecycleFrame(got) // the next trial starts from a dirty pool
			}
		}
	}
}

// frameObjects is what one frame costs the allocator: its header and the
// one buffer behind its three planes.
const frameObjects = 2

// TestKernelAllocsOneFramePerOutput pins the steady state of the two
// operators that used to cost two frames per output (Q2(d): the output
// and a background mean nobody recycled; Q6(a): the output and an ω
// frame): what they allocate is the frame they return.
func TestKernelAllocsOneFramePerOutput(t *testing.T) {
	src := noiseVideo(8, 64, 48, 77)
	next := 0
	frame := func() *video.Frame { next++; return src.Frames[next%len(src.Frames)] }

	s := NewMaskStream(4, 0.2)
	for i := 0; i < 8; i++ {
		s.Push(frame())
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if s.Push(frame()) == nil {
			t.Fatal("full window produced no output")
		}
	}); allocs > frameObjects {
		t.Errorf("MaskStream.Push allocates %.1f objects per output frame, want <= %d (one frame)", allocs, frameObjects)
	}

	dets := boxDets(rand.New(rand.NewSource(5)), 4, 64, 48)
	RecycleFrame(OverlayBoxes(frame(), dets, nil)) // warm the scratch pool
	if allocs := testing.AllocsPerRun(50, func() {
		OverlayBoxes(frame(), dets, nil)
	}); allocs > frameObjects {
		t.Errorf("OverlayBoxes allocates %.1f objects per frame, want <= %d (one frame)", allocs, frameObjects)
	}
}

var kernelSink *video.Video

// BenchmarkKernels times the three execute-stage kernels at the shape
// bench/ runs them (192×108, 15 frames per clip), one clip per
// iteration, serially — the way one query instance runs them.
// scripts/verify.sh and CI run it at -benchtime 1x so it cannot rot.
func BenchmarkKernels(b *testing.B) {
	const w, h, frames = 192, 108, 15
	v := maskTestVideo(frames, w, h, 1)
	recycle := func(out *video.Video) {
		kernelSink = out
		for _, f := range out.Frames {
			RecycleFrame(f)
		}
	}
	// ns/sample is per blurred output sample, luma and chroma alike.
	samples := frames * (w*h + 2*(w/2)*(h/2))
	for _, d := range []int{3, 8, 13, 20} {
		b.Run(fmt.Sprintf("Q2b/d=%d", d), func(b *testing.B) {
			blur := NewGaussianBlur(d)
			for i := 0; i < b.N; i++ {
				out := video.NewVideo(v.FPS)
				for _, f := range v.Frames {
					out.Append(blur(f))
				}
				recycle(out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
		})
	}
	for _, m := range []int{2, 15, 60} {
		b.Run(fmt.Sprintf("Q2d/stream/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				recycle(maskStreamed(v, m, 0.2))
			}
		})
		b.Run(fmt.Sprintf("Q2d/RunQ2d/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := RunQ2d(v, Params{M: m, Epsilon: 0.2})
				if err != nil {
					b.Fatal(err)
				}
				recycle(out)
			}
		})
	}
	// Q5 at the bench/ shape: the power-of-two factors it draws, one
	// integer ratio (α = β = 2) and one whose rows are not (β = 8).
	for _, ab := range []int{2, 8} {
		b.Run(fmt.Sprintf("Q5/alpha=beta=%d", ab), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := video.NewVideo(v.FPS)
				for _, f := range v.Frames {
					out.Append(f.Downsample(w/ab, h/ab))
				}
				kernelSink = out
			}
		})
	}
	for _, n := range []int{0, 4} {
		b.Run(fmt.Sprintf("Q6a/boxes=%d", n), func(b *testing.B) {
			dets := boxDets(rand.New(rand.NewSource(6)), n, w, h)
			for i := 0; i < b.N; i++ {
				out := video.NewVideo(v.FPS)
				for _, f := range v.Frames {
					out.Append(OverlayBoxes(f, dets, nil))
				}
				recycle(out)
			}
		})
	}
}
