package queries

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/video"
)

// noiseFrame builds a deterministic pseudo-random frame with embedded
// ω-colored patches so coalesce/mask kernels exercise both branches.
func noiseFrame(w, h, idx int, seed int64) *video.Frame {
	rng := rand.New(rand.NewSource(seed))
	f := video.NewFrame(w, h)
	f.Index = idx
	for i := range f.Y {
		f.Y[i] = byte(rng.Intn(256))
	}
	for i := range f.U {
		f.U[i] = byte(rng.Intn(256))
		f.V[i] = byte(rng.Intn(256))
	}
	// ω patches (with codec-tolerance wobble) over ~a quarter of the
	// frame.
	for y := 0; y < h/2; y++ {
		for x := 0; x < w/2; x++ {
			if (x+y)%3 == 0 {
				f.SetY(x, y, byte(16+rng.Intn(5)))
				f.SetChroma(x, y, byte(128-rng.Intn(5)), byte(128+rng.Intn(5)))
			}
		}
	}
	return f
}

func noiseVideo(n, w, h int, seed int64) *video.Video {
	v := video.NewVideo(15)
	for i := 0; i < n; i++ {
		v.Append(noiseFrame(w, h, i, seed+int64(i)))
	}
	return v
}

func framesEqual(a, b *video.Frame) bool {
	return a.W == b.W && a.H == b.H && a.Index == b.Index &&
		bytes.Equal(a.Y, b.Y) && bytes.Equal(a.U, b.U) && bytes.Equal(a.V, b.V)
}

func videosEqual(t *testing.T, label string, a, b *video.Video) {
	t.Helper()
	if len(a.Frames) != len(b.Frames) {
		t.Fatalf("%s: %d frames vs %d", label, len(a.Frames), len(b.Frames))
	}
	for i := range a.Frames {
		if !framesEqual(a.Frames[i], b.Frames[i]) {
			t.Fatalf("%s: frame %d differs", label, i)
		}
	}
}

// frameDims covers even, odd-width, odd-height, odd-both, and tiny
// (kernel-wider-than-plane for the blur border logic) shapes, the shape
// the benchmark runs (bench/), and widths that leave the blur's 16-output
// kernels a tail: one column (17, 33 and their chroma), and the pairs of
// a 120-wide chroma plane (240).
var frameDims = []struct{ w, h int }{
	{64, 48}, {63, 48}, {64, 47}, {63, 47}, {5, 3}, {2, 2}, {192, 108},
	{17, 5}, {33, 9}, {240, 136},
}

// maskClosureForm is Q2(d) as Table 4 spells it — Window, AggregateMean
// and a JoinPFrame over the maskBelow projection — the form the
// sliding-window operator must equal byte for byte.
func maskClosureForm(v *video.Video, m int, eps float64) *video.Video {
	out := video.NewVideo(v.FPS)
	for i, window := range Window(v, m) {
		out.Append(JoinPFrame(v.Frames[i], AggregateMean(window), func(pv, pb Pixel) Pixel {
			if maskBelow(pv, pb, eps) {
				return Omega
			}
			return pv
		}))
	}
	return out
}

// maskStreamed is Q2(d) through the streaming operator: push every
// frame, then drain.
func maskStreamed(v *video.Video, m int, eps float64) *video.Video {
	out := video.NewVideo(v.FPS)
	s := NewMaskStream(m, eps)
	for _, f := range v.Frames {
		if g := s.Push(f); g != nil {
			out.Append(g)
		}
	}
	for g := s.Drain(); g != nil; g = s.Drain() {
		out.Append(g)
	}
	return out
}

// maskTestVideo is noise with what a mask test needs over it: a static
// region (masked at any ε), a region that flickers a few levels around
// a base (deviations on both sides of the threshold), and a band of
// black, where the relative deviation divides by 1 instead of 0.
func maskTestVideo(n, w, h int, seed int64) *video.Video {
	v := noiseVideo(n, w, h, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	first := v.Frames[0]
	for _, f := range v.Frames[1:] {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				switch {
				case y < h/3:
					f.SetY(x, y, first.Y[y*w+x])
				case y < 2*h/3 && x < w/2:
					f.SetY(x, y, byte(geom.ClampInt(int(first.Y[y*w+x])/4+rng.Intn(9)-4, 0, 255)))
				case y >= h-2:
					f.SetY(x, y, byte(rng.Intn(2)))
				}
			}
		}
	}
	return v
}

// TestFusedKernelsMatchClosureForms is the fused-operator contract:
// every specialized kernel is byte-identical to the closure-based
// reference it replaces.
func TestFusedKernelsMatchClosureForms(t *testing.T) {
	for _, dim := range frameDims {
		t.Run(fmt.Sprintf("%dx%d", dim.w, dim.h), func(t *testing.T) {
			fa := noiseFrame(dim.w, dim.h, 3, 101)
			fb := noiseFrame(dim.w, dim.h, 3, 202)

			mv := maskTestVideo(5, dim.w, dim.h, 303)
			for _, eps := range []float64{0.05, 0.2, 0.5} {
				videosEqual(t, fmt.Sprintf("MaskStream(m=3, eps=%g) vs JoinPFrame over AggregateMean", eps),
					maskClosureForm(mv, 3, eps), maskStreamed(mv, 3, eps))
			}

			want := JoinPFrame(fa, fb, OmegaCoalesce)
			got := coalesceFrame(fa, fb)
			if !framesEqual(want, got) {
				t.Error("coalesceFrame diverges from JoinPFrame(OmegaCoalesce)")
			}

			// Table 3 draws d from [3, 20]; an even d puts the kernel
			// off-centre (r = d/2). Below 3 an engine that skipped
			// Validate still gets the reference's bytes.
			for d := 0; d <= 20; d++ {
				k := gaussianKernel(d)
				bl := newBlurrer(d)
				want := blurFrame(fa, k)
				got := bl.frame(fa)
				if !framesEqual(want, got) {
					t.Errorf("blurrer.frame(d=%d) diverges from blurFrame", d)
				}
			}

			if !framesEqual(fa.Grayscale(), grayFrame(fa)) {
				t.Error("grayFrame diverges from Frame.Grayscale")
			}
			if !framesEqual(fa.Clone(), copyFrame(fa)) {
				t.Error("copyFrame diverges from Clone")
			}
		})
	}
}

// TestOperatorsIdenticalAcrossWorkerCounts drives the frame-parallel
// operators end to end at different effective worker counts (via
// GOMAXPROCS, which parallel.Default() honors) and requires identical
// output videos.
func TestOperatorsIdenticalAcrossWorkerCounts(t *testing.T) {
	v := noiseVideo(23, 63, 47, 7)
	boxes := noiseVideo(23, 63, 47, 9)
	pq2b := Params{D: 5}
	pq2d := Params{M: 4, Epsilon: 0.2}

	type outputs struct {
		q2a, q2b, q2d, q6a *video.Video
		pmap               *video.Video
	}
	runAll := func() outputs {
		var o outputs
		o.q2a = RunQ2a(v)
		var err error
		if o.q2b, err = RunQ2b(v, pq2b); err != nil {
			t.Fatal(err)
		}
		if o.q2d, err = RunQ2d(v, pq2d); err != nil {
			t.Fatal(err)
		}
		if o.q6a, err = RunQ6a(v, boxes); err != nil {
			t.Fatal(err)
		}
		o.pmap = PMap(v, func(p Pixel) Pixel { return Pixel{Y: 255 - p.Y, U: p.V, V: p.U} })
		return o
	}

	prev := runtime.GOMAXPROCS(1)
	serial := runAll()
	runtime.GOMAXPROCS(prev)

	for _, procs := range []int{4, 8} {
		restore := runtime.GOMAXPROCS(procs)
		par := runAll()
		runtime.GOMAXPROCS(restore)
		videosEqual(t, fmt.Sprintf("Q2a@%d", procs), serial.q2a, par.q2a)
		videosEqual(t, fmt.Sprintf("Q2b@%d", procs), serial.q2b, par.q2b)
		videosEqual(t, fmt.Sprintf("Q2d@%d", procs), serial.q2d, par.q2d)
		videosEqual(t, fmt.Sprintf("Q6a@%d", procs), serial.q6a, par.q6a)
		videosEqual(t, fmt.Sprintf("PMap@%d", procs), serial.pmap, par.pmap)
	}
}

// TestPMapFrameOddDimensionsPoisonedPool verifies 4:2:0 coverage on odd
// frame shapes: after poisoning the pool with a 0xAA-filled recycled
// frame, PMapFrame must still overwrite every luma and chroma sample.
func TestPMapFrameOddDimensionsPoisonedPool(t *testing.T) {
	for _, dim := range []struct{ w, h int }{{5, 3}, {7, 5}, {1, 1}, {6, 3}, {5, 4}} {
		poison := video.NewFrame(dim.w, dim.h)
		for i := range poison.Y {
			poison.Y[i] = 0xAA
		}
		for i := range poison.U {
			poison.U[i] = 0xAA
			poison.V[i] = 0xAA
		}
		video.PutFrame(poison)

		src := noiseFrame(dim.w, dim.h, 0, 55)
		got := PMapFrame(src, func(p Pixel) Pixel { return p })
		if !framesEqual(src, got) {
			t.Errorf("%dx%d: identity PMapFrame on pooled frame leaks stale samples", dim.w, dim.h)
		}
	}
}

// TestPMapFrameAllocsWithRecycle is the pooling satellite: a
// PMapFrame/video.PutFrame cycle must not allocate fresh planes each
// frame.
func TestPMapFrameAllocsWithRecycle(t *testing.T) {
	src := noiseFrame(64, 48, 0, 77)
	ident := func(p Pixel) Pixel { return p }
	// Warm the pool.
	video.PutFrame(PMapFrame(src, ident))
	allocs := testing.AllocsPerRun(50, func() {
		f := PMapFrame(src, ident)
		video.PutFrame(f)
	})
	if allocs > 3 {
		t.Errorf("PMapFrame+PutFrame allocates %.1f objects/op, want <= 3", allocs)
	}
}

// blurFrame and blurPlane are the reference Gaussian blur — every tap
// clamped, a fresh scratch plane per call — that blurrer must match
// bit-for-bit. Each product is rounded explicitly, as in the kernels, so
// that no architecture fuses it into the sum (kernels_generic.go).
func blurFrame(f *video.Frame, k []float64) *video.Frame {
	out := video.NewFrame(f.W, f.H)
	out.Index = f.Index
	blurPlane(out.Y, f.Y, f.W, f.H, k)
	blurPlane(out.U, f.U, f.ChromaW(), f.ChromaH(), k)
	blurPlane(out.V, f.V, f.ChromaW(), f.ChromaH(), k)
	return out
}

func blurPlane(dst, src []byte, w, h int, k []float64) {
	tmp := make([]float64, w*h)
	r := len(k) / 2
	// Horizontal pass.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var s float64
			for i, kv := range k {
				sx := geom.ClampInt(x+i-r, 0, w-1)
				s += float64(kv * float64(src[y*w+sx]))
			}
			tmp[y*w+x] = s
		}
	}
	// Vertical pass.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var s float64
			for i, kv := range k {
				sy := geom.ClampInt(y+i-r, 0, h-1)
				s += float64(kv * tmp[sy*w+x])
			}
			dst[y*w+x] = byte(geom.Clamp(s, 0, 255) + 0.5)
		}
	}
}

// TestMaskStreamReleasesEachFrameOnce: with Release set, every pushed
// frame is released exactly once, in input order, by the call that
// returns its output — never while a later output still reads it — and
// the outputs are the ones the operator makes without Release.
func TestMaskStreamReleasesEachFrameOnce(t *testing.T) {
	v := maskTestVideo(7, 16, 8, 3)
	for _, m := range []int{1, 3, 7, 12} {
		want := maskStreamed(v, m, 0.2)
		var released []*video.Frame
		s := NewMaskStream(m, 0.2)
		s.Release = func(f *video.Frame) { released = append(released, f) }
		got := video.NewVideo(v.FPS)
		emitted := func(g *video.Frame) {
			if n := len(released); n != len(got.Frames)+1 || released[n-1].Index != g.Index {
				t.Fatalf("m=%d: output %d returned after %d releases", m, g.Index, n)
			}
			got.Append(g)
		}
		for _, f := range v.Frames {
			if g := s.Push(f); g != nil {
				emitted(g)
			}
		}
		for g := s.Drain(); g != nil; g = s.Drain() {
			emitted(g)
		}
		if len(released) != len(v.Frames) {
			t.Fatalf("m=%d: %d releases for %d frames", m, len(released), len(v.Frames))
		}
		for i, f := range released {
			if f != v.Frames[i] {
				t.Errorf("m=%d: release %d is not input frame %d", m, i, i)
			}
		}
		videosEqual(t, fmt.Sprintf("MaskStream(m=%d) with Release", m), want, got)
	}
}
