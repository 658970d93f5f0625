package queries

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/video"
)

// This file holds the fused, allocation-aware kernels behind the hot
// benchmark queries. The closure-based operators (PMapFrame, JoinPFrame)
// and the clamp-every-tap blurFrame of fused_test.go remain the semantic
// reference; every kernel here is byte-identical to the corresponding
// reference form — equivalence is enforced by table-driven tests — and
// differs only in how it walks the planes (flat []byte loops, no
// per-pixel closure dispatch, pooled output frames, hoisted scratch).

// framePools recycles operator output frames per resolution. Frames
// obtained here carry unspecified pixel content: only kernels that
// overwrite every luma and chroma sample may use them.
var framePools sync.Map // [2]int{w, h} → *video.FramePool

func getFrame(w, h int) *video.Frame {
	key := [2]int{w, h}
	p, ok := framePools.Load(key)
	if !ok {
		p, _ = framePools.LoadOrStore(key, video.NewFramePool(w, h))
	}
	f := p.(*video.FramePool).Get()
	f.Index = 0
	return f
}

// RecycleFrame returns a frame produced by this package's operators to
// the frame pool. Only recycle frames the caller exclusively owns and
// no longer references — never frames whose planes are shared (decoded
// cache views, table rows).
func RecycleFrame(f *video.Frame) {
	if f == nil {
		return
	}
	if p, ok := framePools.Load([2]int{f.W, f.H}); ok {
		p.(*video.FramePool).Put(f)
	}
}

// sumPool recycles the integer accumulator AggregateMean needs per
// window — Q2(d) computes one mean frame per input frame, so the
// accumulator is the operator's dominant transient allocation.
var sumPool = sync.Pool{New: func() any { return new([]int) }}

func sumScratch(n int) *[]int {
	p := sumPool.Get().(*[]int)
	if cap(*p) < n {
		*p = make([]int, n)
	}
	s := (*p)[:n]
	for i := range s {
		s[i] = 0
	}
	*p = s
	return p
}

// blurrer is the per-query state of the Q2(b) Gaussian blur: the
// normalized 1D kernel and a pool of float scratch planes, both built
// once per query rather than once per frame.
type blurrer struct {
	k       []float64
	scratch sync.Pool
}

func newBlurrer(d int) *blurrer {
	b := &blurrer{k: gaussianKernel(d)}
	b.scratch.New = func() any { return new([]float64) }
	return b
}

// NewGaussianBlur returns the Q2(b) d×d Gaussian blur as a frame
// function, safe for concurrent use: the kernel is built once, scratch
// planes are pooled across calls, and every output frame is fresh from
// this package's frame pool. Engines that express the blur as their own
// operator call this rather than carry a copy.
func NewGaussianBlur(d int) func(*video.Frame) *video.Frame {
	return newBlurrer(d).frame
}

func (b *blurrer) tmp(n int) *[]float64 {
	p := b.scratch.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

// frame blurs one frame into a pooled output (every sample written).
func (b *blurrer) frame(f *video.Frame) *video.Frame {
	out := getFrame(f.W, f.H)
	out.Index = f.Index
	b.plane(out.Y, f.Y, f.W, f.H)
	b.plane(out.U, f.U, f.ChromaW(), f.ChromaH())
	b.plane(out.V, f.V, f.ChromaW(), f.ChromaH())
	return out
}

// plane is the separable blur evaluated a row at a time. Each pass adds
// one kernel tap to a whole row of accumulators before moving to the next
// tap, so every output still sums its taps in ascending kernel order from
// zero — the clamp-every-tap reference (blurPlane in fused_test.go),
// bit-for-bit — while the inner loops walk contiguous float rows: border
// clamping happens once per source row (horizontal, into pad) or once per
// tap row (vertical), and samples convert to float once, not once per tap.
func (b *blurrer) plane(dst, src []byte, w, h int) {
	k := b.k
	r := len(k) / 2
	padLen := w + len(k) - 1
	tp := b.tmp(w*h + padLen + w)
	tmp, pad, acc := (*tp)[:w*h], (*tp)[w*h:w*h+padLen], (*tp)[w*h+padLen:]

	// Horizontal pass: pad[j] is the source sample at column j−r, clamped.
	for y := 0; y < h; y++ {
		row := src[y*w : (y+1)*w]
		for j := range pad {
			pad[j] = float64(row[geom.ClampInt(j-r, 0, w-1)])
		}
		trow := tmp[y*w : (y+1)*w]
		clear(trow)
		for i, kv := range k {
			for x, v := range pad[i : i+w] {
				trow[x] += kv * v
			}
		}
	}

	// Vertical pass.
	for y := 0; y < h; y++ {
		clear(acc)
		for i, kv := range k {
			sy := geom.ClampInt(y+i-r, 0, h-1)
			for x, v := range tmp[sy*w : (sy+1)*w] {
				acc[x] += kv * v
			}
		}
		drow := dst[y*w : (y+1)*w]
		for x, s := range acc {
			drow[x] = byte(geom.Clamp(s, 0, 255) + 0.5)
		}
	}
	b.scratch.Put(tp)
}

// maskFrameQ2d is the fused Q2(d) masking kernel: JoinPFrame specialized
// to the background-subtraction projection. The mask decision depends
// only on luma; chroma follows the co-located even-coordinate pixel's
// decision, exactly as the closure form does.
func maskFrameQ2d(fv, fb *video.Frame, eps float64) *video.Frame {
	out := getFrame(fv.W, fv.H)
	out.Index = fv.Index
	w := fv.W
	cw := fv.ChromaW()
	for y := 0; y < fv.H; y++ {
		vrow := fv.Y[y*w : (y+1)*w]
		brow := fb.Y[y*w : (y+1)*w]
		orow := out.Y[y*w : (y+1)*w]
		chromaRow := y%2 == 0
		crow := y / 2 * cw
		for x := 0; x < w; x++ {
			pv := vrow[x]
			masked := maskBelow(Pixel{Y: pv}, Pixel{Y: brow[x]}, eps)
			if masked {
				orow[x] = Omega.Y
			} else {
				orow[x] = pv
			}
			if chromaRow && x%2 == 0 {
				ci := crow + x/2
				if masked {
					out.U[ci] = Omega.U
					out.V[ci] = Omega.V
				} else {
					out.U[ci] = fv.U[ci]
					out.V[ci] = fv.V[ci]
				}
			}
		}
	}
	return out
}

// coalesceFrame is the fused Q6(a) kernel: JoinPFrame specialized to the
// ω-coalesce projection of Equation 1 (b unless b is the null color).
func coalesceFrame(fa, fb *video.Frame) *video.Frame {
	out := getFrame(fa.W, fa.H)
	out.Index = fa.Index
	w := fa.W
	cw := fa.ChromaW()
	for y := 0; y < fa.H; y++ {
		arow := fa.Y[y*w : (y+1)*w]
		brow := fb.Y[y*w : (y+1)*w]
		orow := out.Y[y*w : (y+1)*w]
		chromaRow := y%2 == 0
		crow := y / 2 * cw
		for x := 0; x < w; x++ {
			ci := crow + x/2
			bp := Pixel{Y: brow[x], U: fb.U[ci], V: fb.V[ci]}
			omega := IsOmega(bp)
			if omega {
				orow[x] = arow[x]
			} else {
				orow[x] = bp.Y
			}
			if chromaRow && x%2 == 0 {
				if omega {
					out.U[ci] = fa.U[ci]
					out.V[ci] = fa.V[ci]
				} else {
					out.U[ci] = bp.U
					out.V[ci] = bp.V
				}
			}
		}
	}
	return out
}

// grayFrame is the fused Q2(a) kernel: copy luma into a pooled frame and
// flood the chroma planes with the neutral value, identical to
// Frame.Grayscale.
func grayFrame(f *video.Frame) *video.Frame {
	out := getFrame(f.W, f.H)
	out.Index = f.Index
	copy(out.Y, f.Y)
	for i := range out.U {
		out.U[i] = 128
		out.V[i] = 128
	}
	return out
}

// captionFrame copies f into a pooled frame (every sample overwritten)
// for Q6(b)'s compositor to draw on.
func captionFrame(f *video.Frame) *video.Frame {
	out := getFrame(f.W, f.H)
	out.Index = f.Index
	copy(out.Y, f.Y)
	copy(out.U, f.U)
	copy(out.V, f.V)
	return out
}
