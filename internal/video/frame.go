// Package video defines the in-memory representation of raw video used
// throughout the benchmark: planar YUV 4:2:0 frames, frame sequences,
// and the basic per-plane operations (crop, resample, conversion)
// shared by the reference query implementations and the VDBMS engines.
//
// Visual Road frames are temporal samples of visual data with a fixed
// resolution; pixels carry colors in YUV space. 4:2:0 chroma subsampling
// matches what the paper's H.264/HEVC pipelines operate on.
package video

import (
	"fmt"
	"math"
	"sync"
)

// Frame is a single planar YUV 4:2:0 image. The luma plane Y has W×H
// samples; the chroma planes U and V each have ⌈W/2⌉×⌈H/2⌉ samples.
// Index is the frame's position in its parent video (0-based).
type Frame struct {
	W, H    int
	Y, U, V []byte
	Index   int
}

// ChromaW returns the width of the chroma planes.
func (f *Frame) ChromaW() int { return (f.W + 1) / 2 }

// ChromaH returns the height of the chroma planes.
func (f *Frame) ChromaH() int { return (f.H + 1) / 2 }

// NewFrame allocates a zeroed (black: Y=0 is out of video range, so we
// use Y=16, U=V=128 which is black in studio-range YUV) frame of the
// given dimensions.
func NewFrame(w, h int) *Frame {
	f := newFrameUnfilled(w, h)
	f.Fill(16, 128, 128)
	return f
}

// newFrameUnfilled allocates a frame without painting it black, for the
// constructors and the pool whose callers overwrite every luma and
// chroma sample.
func newFrameUnfilled(w, h int) *Frame {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("video: invalid frame dimensions %dx%d", w, h))
	}
	cw, ch := (w+1)/2, (h+1)/2
	// One backing allocation for all three planes, sliced with capacity
	// limits so an append to one plane can never bleed into the next.
	ySize, cSize := w*h, cw*ch
	buf := make([]byte, ySize+2*cSize)
	return &Frame{
		W: w, H: h,
		Y: buf[:ySize:ySize],
		U: buf[ySize : ySize+cSize : ySize+cSize],
		V: buf[ySize+cSize:],
	}
}

// fillBytes sets every byte of s to v with a doubling copy: memmove
// speed instead of a byte loop.
func fillBytes(s []byte, v byte) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for n := 1; n < len(s); n *= 2 {
		copy(s[n:], s[:n])
	}
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	g := newFrameUnfilled(f.W, f.H)
	g.Index = f.Index
	copy(g.Y, f.Y)
	copy(g.U, f.U)
	copy(g.V, f.V)
	return g
}

// At returns the (y, u, v) triple at pixel (x, y). Chroma is sampled at
// half resolution.
func (f *Frame) At(x, y int) (Y, U, V byte) {
	cy := y / 2 * f.ChromaW()
	cx := x / 2
	return f.Y[y*f.W+x], f.U[cy+cx], f.V[cy+cx]
}

// SetY sets the luma sample at (x, y).
func (f *Frame) SetY(x, y int, v byte) { f.Y[y*f.W+x] = v }

// SetChroma sets the chroma samples covering pixel (x, y).
func (f *Frame) SetChroma(x, y int, u, v byte) {
	i := y/2*f.ChromaW() + x/2
	f.U[i] = u
	f.V[i] = v
}

// Set writes a full YUV triple at pixel (x, y). Because chroma is shared
// between 2×2 pixel blocks, the chroma write affects neighbors.
func (f *Frame) Set(x, y int, Y, U, V byte) {
	f.SetY(x, y, Y)
	f.SetChroma(x, y, U, V)
}

// Fill sets every pixel of the frame to the given YUV color.
func (f *Frame) Fill(Y, U, V byte) {
	fillBytes(f.Y, Y)
	fillBytes(f.U, U)
	fillBytes(f.V, V)
}

// Crop returns a new frame containing the rectangle [x1,x2)×[y1,y2) of f.
// The rectangle is clamped to the frame bounds; a degenerate rectangle
// yields a 1×1 frame to keep downstream code total.
func (f *Frame) Crop(x1, y1, x2, y2 int) *Frame {
	x1 = clampInt(x1, 0, f.W-1)
	y1 = clampInt(y1, 0, f.H-1)
	x2 = clampInt(x2, x1+1, f.W)
	y2 = clampInt(y2, y1+1, f.H)
	w, h := x2-x1, y2-y1
	out := newFrameUnfilled(w, h)
	out.Index = f.Index
	for y := 0; y < h; y++ {
		copy(out.Y[y*w:(y+1)*w], f.Y[(y+y1)*f.W+x1:(y+y1)*f.W+x2])
	}
	cw, ch := out.ChromaW(), out.ChromaH()
	fcw := f.ChromaW()
	for y := 0; y < ch; y++ {
		sy := clampInt(y+y1/2, 0, f.ChromaH()-1)
		for x := 0; x < cw; x++ {
			sx := clampInt(x+x1/2, 0, fcw-1)
			out.U[y*cw+x] = f.U[sy*fcw+sx]
			out.V[y*cw+x] = f.V[sy*fcw+sx]
		}
	}
	return out
}

// Grayscale returns a copy of f with chroma information dropped: the U
// and V planes are set to the neutral value 128, leaving luminance
// unchanged. This matches the VCD reference implementation of Q2(a).
// The copy comes from the frame registry (GetFrame): it has the input's
// size, so a writer that recycles it feeds the decoder's pool as much as
// it took.
func (f *Frame) Grayscale() *Frame {
	g := GetFrame(f.W, f.H)
	g.Index = f.Index
	copy(g.Y, f.Y)
	fillBytes(g.U, 128)
	fillBytes(g.V, 128)
	return g
}

// BilinearResize returns f interpolated to the new resolution (w, h)
// using bilinear interpolation on all three planes.
func (f *Frame) BilinearResize(w, h int) *Frame {
	out := newFrameUnfilled(w, h)
	out.Index = f.Index
	resizePlane(out.Y, w, h, f.Y, f.W, f.H)
	resizePlane(out.U, out.ChromaW(), out.ChromaH(), f.U, f.ChromaW(), f.ChromaH())
	resizePlane(out.V, out.ChromaW(), out.ChromaH(), f.V, f.ChromaW(), f.ChromaH())
	return out
}

// Downsample returns f reduced to (w, h) by box-averaging source pixels.
// Box filtering is the conventional decimation used for Q5's Sample
// operator; for upscaling targets it degrades to bilinear.
func (f *Frame) Downsample(w, h int) *Frame {
	if w >= f.W || h >= f.H {
		return f.BilinearResize(w, h)
	}
	out := newFrameUnfilled(w, h)
	out.Index = f.Index
	boxPlane(out.Y, w, h, f.Y, f.W, f.H, sumRows)
	boxPlane(out.U, out.ChromaW(), out.ChromaH(), f.U, f.ChromaW(), f.ChromaH(), sumRows)
	boxPlane(out.V, out.ChromaW(), out.ChromaH(), f.V, f.ChromaW(), f.ChromaH(), sumRows)
	return out
}

// resizePlane bilinearly resamples src (sw×sh) into dst (dw×dh).
func resizePlane(dst []byte, dw, dh int, src []byte, sw, sh int) {
	if dw <= 0 || dh <= 0 {
		return
	}
	xr := float64(sw) / float64(dw)
	yr := float64(sh) / float64(dh)
	for y := 0; y < dh; y++ {
		sy := (float64(y)+0.5)*yr - 0.5
		y0 := int(math.Floor(sy))
		fy := sy - float64(y0)
		y1 := y0 + 1
		if y0 < 0 {
			y0, y1, fy = 0, 0, 0
		}
		if y1 >= sh {
			y1 = sh - 1
			if y0 >= sh {
				y0 = sh - 1
			}
		}
		for x := 0; x < dw; x++ {
			sx := (float64(x)+0.5)*xr - 0.5
			x0 := int(math.Floor(sx))
			fx := sx - float64(x0)
			x1 := x0 + 1
			if x0 < 0 {
				x0, x1, fx = 0, 0, 0
			}
			if x1 >= sw {
				x1 = sw - 1
				if x0 >= sw {
					x0 = sw - 1
				}
			}
			v00 := float64(src[y0*sw+x0])
			v01 := float64(src[y0*sw+x1])
			v10 := float64(src[y1*sw+x0])
			v11 := float64(src[y1*sw+x1])
			top := v00 + (v01-v00)*fx
			bot := v10 + (v11-v10)*fx
			dst[y*dw+x] = byte(top + (bot-top)*fy + 0.5)
		}
	}
}

// boxPlane box-filters src (sw×sh) down into dst (dw×dh): output sample
// (x, y) is the rounded mean of source columns [x·sw/dw, (x+1)·sw/dw) ×
// rows [y·sh/dh, (y+1)·sh/dh), each at least one sample wide. The
// column bounds are the same on every output row, so they are divided
// out once per call and the row bounds once per output row. Per output
// row, sum (sumRows, or its Go twin under test) adds the box rows up per
// source column in uint16 lanes, at most boxRowsMax rows at a time; one
// pass turns those column sums into a prefix row, and an output sample
// is a difference of two prefix entries times the exact reciprocal of
// its box size (boxRecip): a box is one of at most two widths, so a row
// needs two reciprocals and no divide.
func boxPlane(dst []byte, dw, dh int, src []byte, sw, sh int, sum func(acc []uint16, src []byte, stride, rows int)) {
	if dw <= 0 || dh <= 0 {
		return
	}
	sc := boxPool.Get().(*boxScratch)
	defer boxPool.Put(sc)
	sc.cols = grow(sc.cols, dw)
	sc.acc = grow(sc.acc, sw)
	sc.pre = grow(sc.pre, sw+1)
	// Output column x starts at source column cols[x]>>1 and is wlo
	// columns wide, one more when cols[x]&1 is set.
	cols, acc, pre := sc.cols, sc.acc, sc.pre
	pre[0] = 0
	wlo := max(sw/dw, 1)
	for x := 0; x < dw; x++ {
		x0 := x * sw / dw
		cols[x] = x0<<1 | (max((x+1)*sw/dw, x0+1) - x0 - wlo)
	}
	for y := 0; y < dh; y++ {
		sy0 := y * sh / dh
		bh := max((y+1)*sh/dh, sy0+1) - sy0
		for r := 0; r < bh; r += boxRowsMax {
			sum(acc, src[(sy0+r)*sw:], sw, min(boxRowsMax, bh-r))
			run, p := 0, pre[1:][:len(acc)] // p[i] = pre[i+1]
			if r == 0 {
				for i, a := range acc {
					run += int(a)
					p[i] = run
				}
				continue
			}
			for i, a := range acc {
				run += int(a)
				p[i] += run
			}
		}
		out := dst[y*dw : (y+1)*dw]
		n := [2]int{wlo * bh, (wlo + 1) * bh}
		if n[1] >= boxRecipLimit {
			for x := range out {
				x0, k := cols[x]>>1, cols[x]&1
				s := pre[x0+wlo+k] - pre[x0]
				out[x] = byte((s + n[k]/2) / n[k])
			}
			continue
		}
		half := [2]uint64{uint64(n[0] / 2), uint64(n[1] / 2)}
		mul := [2]uint64{boxRecip(n[0]), boxRecip(n[1])}
		for x := range out {
			x0, k := cols[x]>>1, cols[x]&1
			s := uint64(pre[x0+wlo+k] - pre[x0])
			out[x] = byte((s + half[k]) * mul[k] >> boxRecipShift)
		}
	}
}

const (
	// boxRowsMax is the most box rows sumRows adds in one call: 257
	// samples of at most 255 still fit a uint16 lane (65535 = 257·255).
	boxRowsMax = 257
	// boxRecipShift and boxRecipLimit bound boxRecip: boxes of fewer
	// than boxRecipLimit samples divide by a multiply and a shift,
	// larger ones (256×256 samples and up) divide.
	boxRecipShift = 40
	boxRecipLimit = 1 << 16
)

// boxRecip returns ⌈2^40/n⌉ for 0 < n < boxRecipLimit, with which
// v·boxRecip(n) >> 40 is v/n for every v < 256·n — a rounded box mean's
// numerator, sum + n/2 with sum ≤ 255·n. With m = ⌈2^40/n⌉ = (2^40+e)/n
// and 0 ≤ e < n, v·m/2^40 = v/n + v·e/(n·2^40), and v·e < 256·n² ≤ 2^40
// keeps the excess below 1/n, too little to carry floor(v/n) past the
// next integer; v·m < 2^49 stays in 64 bits (TestBoxRecipIsExact).
func boxRecip(n int) uint64 {
	return (1<<boxRecipShift + uint64(n) - 1) / uint64(n)
}

// boxScratch is boxPlane's scratch, reused across calls through
// boxPool: the output columns' bounds, the box rows' per-column sums
// and their prefix row.
type boxScratch struct {
	cols []int
	acc  []uint16
	pre  []int
}

var boxPool = sync.Pool{New: func() any { return new(boxScratch) }}

// grow returns s resliced to length n, reallocated when too short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
