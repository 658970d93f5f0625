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

// plane is the separable blur in two row-major passes over the scratch
// plane tmp, whose h+d−1 rows of w hold the horizontally blurred plane
// with its border rows clamped. The horizontal pass widens each source
// row into pad, whose r samples at either end repeat the row's end
// samples, and writes its tap sums (blurTaps, taps one sample apart) to
// row r+y of tmp. The r rows above and d−1−r below are then copies of
// the first and last of those — the vertical clamp, once per plane — and
// the vertical pass is the same tap loop with taps w apart: output row y
// reads tmp rows y…y+d−1 and is stored as bytes (blurTapsByte). Each
// output's sum is the reference's expression, so dst is blurPlane's.
func (b *blurrer) plane(dst, src []byte, w, h int) {
	k := b.k
	if len(k) == 0 { // d = 0: every tap sum is empty
		clear(dst)
		return
	}
	r := len(k) / 2
	th := h + len(k) - 1
	tp := b.tmp(w*th + w + len(k) - 1)
	tmp, pad := (*tp)[:w*th], (*tp)[w*th:]

	for y := 0; y < h; y++ {
		widen(pad[r:r+w], src[y*w:(y+1)*w])
		fill(pad[:r], pad[r])
		fill(pad[r+w:], pad[r+w-1])
		blurTaps(tmp[(r+y)*w:(r+y+1)*w], pad, 1, k)
	}
	for y := 0; y < r; y++ {
		copy(tmp[y*w:(y+1)*w], tmp[r*w:(r+1)*w])
	}
	for y := r + h; y < th; y++ {
		copy(tmp[y*w:(y+1)*w], tmp[(r+h-1)*w:(r+h)*w])
	}
	for y := 0; y < h; y++ {
		blurTapsByte(dst[y*w:(y+1)*w], tmp[y*w:], w, k)
	}
	b.scratch.Put(tp)
}

func blurByte(s float64) byte { return byte(geom.Clamp(s, 0, 255) + 0.5) }

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// coalesceFrame is the fused Q6(a) kernel: JoinPFrame specialized to the
// ω-coalesce projection of Equation 1 (b unless b is the null color).
func coalesceFrame(fa, fb *video.Frame) *video.Frame {
	out := getFrame(fa.W, fa.H)
	out.Index = fa.Index
	coalesceRect(out, fa, fb, 0, 0, fa.W, fa.H)
	return out
}

// coalesceRect writes the ω-coalesce of fa and fb over the pixels
// [x0, x1) × [y0, y1) into out. x0 and y0 must be even: a pixel's
// chroma sample is written by the even-coordinate pixel of its 2×2
// block.
func coalesceRect(out, fa, fb *video.Frame, x0, y0, x1, y1 int) {
	w := fa.W
	cw := fa.ChromaW()
	for y := y0; y < y1; y++ {
		arow := fa.Y[y*w : (y+1)*w]
		brow := fb.Y[y*w : (y+1)*w]
		orow := out.Y[y*w : (y+1)*w]
		chromaRow := y%2 == 0
		crow := y / 2 * cw
		for x := x0; x < x1; x++ {
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

// copyFrame copies f into a pooled frame (every sample overwritten) for
// Q6(b)'s compositor and Q6(a)'s box overlay to draw on.
func copyFrame(f *video.Frame) *video.Frame {
	out := getFrame(f.W, f.H)
	out.Index = f.Index
	copy(out.Y, f.Y)
	copy(out.U, f.U)
	copy(out.V, f.V)
	return out
}
