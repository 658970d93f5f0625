package queries

import (
	"sort"

	"repro/internal/parallel"
	"repro/internal/video"
)

// This file is Q2(d) as one sliding-window operator. The closure form
// it must equal byte for byte is JoinPFrame(f_i, AggregateMean(w_i), π)
// with π = maskBelow ? ω : p_v and w_i = Window(v, m)[i]; what differs
// is the cost per output frame — one frame joins the per-sample luma sum
// and one leaves it, whatever m is, and the mask test is two table
// look-ups and a compare instead of a division per pixel.

// maskTable is the per-query half of the mask test: entry pv, thr, is
// the number of distances d = |pv − pb| that maskBelow masks, counted
// from zero, so masked ⇔ |pv − pb| < thr. The float quotient d/pv rises
// with d, so the masked distances are a prefix of [0, 255] and a binary
// search over maskBelow itself finds where it ends: the float
// expression keeps its one definition (ε = 0.5, pv = 2, d = 1 is 0.5 <
// 0.5, not masked, because maskBelow says so).
type maskTable [256]int32

func newMaskTable(eps float64) *maskTable {
	t := &maskTable{}
	for pv := range t {
		// Some byte pb lies at every distance up to the farther end of
		// the range; beyond it there is nothing to decide.
		far := max(pv, 255-pv)
		t[pv] = int32(sort.Search(far+1, func(d int) bool {
			pb := pv - d
			if pb < 0 {
				pb = pv + d
			}
			return !maskBelow(Pixel{Y: byte(pv)}, Pixel{Y: byte(pb)}, eps)
		}))
	}
	return t
}

// maskBounds is the other half, for one window length n: with the mean
// AggregateMean computes, (sum + n/2)/n in integers,
//
//	|pv − mean| < thr  ⇔  pv−thr+1 ≤ mean ≤ pv+thr−1
//	                   ⇔  (pv−thr+1)·n ≤ sum + n/2 < (pv+thr)·n
//
// so lo[pv] holds the left bound less n/2 and span[pv] the distance to
// the right one: masked ⇔ 0 ≤ sum − lo[pv] < span[pv], one unsigned
// compare.
type maskBounds struct {
	lo   [256]int32
	span [256]uint32
}

// set fills b for windows of n frames.
func (b *maskBounds) set(t *maskTable, n int) {
	for pv, v := range t {
		thr := int(v)
		lo, hi := max(pv-thr+1, 0)*n, (pv+thr)*n // a mean is never below 0
		b.lo[pv] = int32(lo - n/2)
		b.span[pv] = uint32(max(hi-lo, 0))
	}
}

// masked is the mask test for a sample pv whose window sums to sum.
func (b *maskBounds) masked(pv byte, sum int32) bool {
	return uint32(sum-b.lo[pv]) < b.span[pv]
}

// slide moves rows [y0, y1) of the window one frame on. enter, when
// non-nil, joins the luma sum; cur, when non-nil, is masked into out
// against the mean of the frames then summed — b holds the bounds for
// their number — and leaves the sum. y0 must be even: a chroma sample
// follows the decision of its even-coordinate luma sample, as in
// JoinPFrame, so the band that owns row y owns chroma row y/2.
func slide(sum []int32, enter, cur, out *video.Frame, b *maskBounds, y0, y1 int) {
	// Wider than a byte so the compiler selects rather than branches: on
	// moving content the mask decision is not predictable.
	omegaY, omegaU, omegaV := uint32(Omega.Y), uint32(Omega.U), uint32(Omega.V)
	for y := y0; y < y1; y++ {
		if enter != nil {
			erow := enter.Y[y*enter.W : (y+1)*enter.W]
			srow := sum[y*enter.W:][:len(erow)]
			for x, e := range erow {
				srow[x] += int32(e)
			}
		}
		if cur == nil {
			continue
		}
		vrow := cur.Y[y*cur.W : (y+1)*cur.W]
		srow := sum[y*cur.W:][:len(vrow)]
		orow := out.Y[y*cur.W:][:len(vrow)]
		if y%2 == 0 {
			cw := cur.ChromaW()
			urow, vcrow := cur.U[y/2*cw:][:cw], cur.V[y/2*cw:][:cw]
			ourow, ovrow := out.U[y/2*cw:][:cw], out.V[y/2*cw:][:cw]
			for cx := range urow {
				u, v := uint32(urow[cx]), uint32(vcrow[cx])
				if b.masked(vrow[2*cx], srow[2*cx]) {
					u, v = omegaU, omegaV
				}
				ourow[cx], ovrow[cx] = byte(u), byte(v)
			}
		}
		for x, pv := range vrow {
			s := srow[x]
			o := uint32(pv)
			if b.masked(pv, s) {
				o = omegaY
			}
			orow[x] = byte(o)
			srow[x] = s - int32(pv)
		}
	}
}

// MaskStream is the Q2(d) operator for an engine that sees its input a
// frame at a time: Push each frame, then Drain. Its state is the window
// — at most m frames, which it holds until they leave — and their
// per-sample luma sum. Outputs come from video's frame registry in
// input order, each stamped with its input frame's Index.
type MaskStream struct {
	// Release, when non-nil, receives each input frame once, as its
	// output is made: the frame has left the window sum then, and the
	// operator never reads it again. An engine that owns its input
	// frames recycles them here.
	Release func(*video.Frame)

	m      int
	table  *maskTable
	window []*video.Frame // summed in sum, oldest first
	sum    []int32
	bounds maskBounds // for window length n
	n      int
}

// NewMaskStream returns the operator for a window of m frames (m < 1 is
// 1, as Window has it) and threshold eps.
func NewMaskStream(m int, eps float64) *MaskStream {
	m = max(m, 1)
	return &MaskStream{m: m, table: newMaskTable(eps), window: make([]*video.Frame, 0, m)}
}

// Push adds the next input frame and, once m frames are in the window,
// returns the masked form of the oldest one; nil while the window
// fills. f must stay unmodified until its output has been returned.
func (s *MaskStream) Push(f *video.Frame) *video.Frame {
	if s.sum == nil {
		s.sum = make([]int32, len(f.Y))
	}
	s.window = append(s.window, f)
	if len(s.window) < s.m {
		slide(s.sum, f, nil, nil, nil, 0, f.H)
		return nil
	}
	return s.emit(f)
}

// Drain returns the next output after the last Push — the windows
// shrink towards the end of the input exactly as Window clamps them —
// and nil when every input frame has had its output.
func (s *MaskStream) Drain() *video.Frame {
	if len(s.window) == 0 {
		return nil
	}
	return s.emit(nil)
}

func (s *MaskStream) emit(enter *video.Frame) *video.Frame {
	cur := s.window[0]
	if n := len(s.window); n != s.n {
		s.n = n
		s.bounds.set(s.table, n)
	}
	out := video.GetFrame(cur.W, cur.H)
	out.Index = cur.Index
	slide(s.sum, enter, cur, out, &s.bounds, 0, cur.H)
	// Shift rather than re-slice: the window keeps its one backing array.
	s.window = s.window[:copy(s.window, s.window[1:])]
	if s.Release != nil {
		s.Release(cur)
	}
	return out
}

// maskVideo is Q2(d) over a materialized input, m ≥ 1: the same slide
// as MaskStream, parallel over row bands with even first rows. Each
// band slides through every frame on its own rows of the sum, so the
// bytes do not depend on the band count.
func maskVideo(v *video.Video, m int, eps float64, workers int) *video.Video {
	out := video.NewVideo(v.FPS)
	frames := v.Frames
	w, h := v.Resolution()
	table := newMaskTable(eps)
	// Frame i's window is frames[i : i+m], clamped: min(m, len−i) frames.
	bounds := make([]maskBounds, min(m, len(frames))+1)
	for n := 1; n < len(bounds); n++ {
		bounds[n].set(table, n)
	}
	for range frames {
		out.Append(video.GetFrame(w, h)) // slide writes every sample
	}
	sum := make([]int32, w*h)
	bands := min(max(workers, 1), (h+1)/2)
	parallel.ForEach(workers, bands, func(band int) error {
		y0, y1 := (h*band/bands)&^1, (h*(band+1)/bands)&^1
		if band == bands-1 {
			y1 = h
		}
		for _, f := range frames[:min(m-1, len(frames))] {
			slide(sum, f, nil, nil, nil, y0, y1)
		}
		for i, f := range frames {
			var enter *video.Frame
			if i+m-1 < len(frames) {
				enter = frames[i+m-1]
			}
			slide(sum, enter, f, out.Frames[i], &bounds[min(m, len(frames)-i)], y0, y1)
		}
		return nil
	})
	return out
}
