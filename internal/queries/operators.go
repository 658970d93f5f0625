// Package queries implements the Visual Road query suite: the
// convenience operators of Table 4 (PMap, FMap, JoinP, Interpolate,
// Sample, Window/Aggregate, Partition/Subquery) and the reference
// implementations of microbenchmark queries Q1–Q6 and composite queries
// Q7–Q10. The reference implementations define correct output — the
// VCD validates VDBMS results against them by PSNR (frame validation)
// or against scene geometry (semantic validation).
package queries

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/parallel"
	"repro/internal/video"
)

// Pixel is a YUV color triple, the element type of the pixel-level
// operators.
type Pixel struct {
	Y, U, V byte
}

// Omega is the "null" black sentinel color ω used by the masking and
// coalescing queries.
var Omega = Pixel{Y: 16, U: 128, V: 128}

// IsOmega reports whether p is (close enough to) the null color. The
// tolerance absorbs codec round-trip error in encoded box videos.
func IsOmega(p Pixel) bool {
	return absDiff(p.Y, Omega.Y) <= 6 && absDiff(p.U, Omega.U) <= 6 && absDiff(p.V, Omega.V) <= 6
}

func absDiff(a, b byte) int {
	if a > b {
		return int(a - b)
	}
	return int(b - a)
}

// PMap maps a function over every pixel of every frame:
// video → (pixel → pixel) → video. Frames are processed concurrently on
// the default worker pool and appended in order; f must be pure (every
// Table 4 pixel function is).
func PMap(v *video.Video, f func(Pixel) Pixel) *video.Video {
	return mapFrames(v, func(fr *video.Frame) *video.Frame { return PMapFrame(fr, f) })
}

// mapFrames applies a pure frame kernel to every frame concurrently and
// reassembles the output in frame order, so results are identical at
// every worker count.
func mapFrames(v *video.Video, kernel func(*video.Frame) *video.Frame) *video.Video {
	frames, _ := parallel.Map(parallel.Default(), len(v.Frames), func(i int) (*video.Frame, error) {
		return kernel(v.Frames[i]), nil
	})
	out := video.NewVideo(v.FPS)
	for _, fr := range frames {
		out.Append(fr)
	}
	return out
}

// PMapFrame applies a pixel function to one frame. Chroma is processed
// at chroma resolution (each chroma sample pairs with the co-located
// luma sample), preserving 4:2:0 structure.
func PMapFrame(fr *video.Frame, f func(Pixel) Pixel) *video.Frame {
	// The loop writes every luma sample, and every chroma sample is
	// covered by its even-coordinate pixel (for odd widths and heights
	// included), so a pooled frame's stale content is fully overwritten.
	out := getFrame(fr.W, fr.H)
	out.Index = fr.Index
	cw := fr.ChromaW()
	for y := 0; y < fr.H; y++ {
		for x := 0; x < fr.W; x++ {
			ci := y/2*cw + x/2
			p := f(Pixel{fr.Y[y*fr.W+x], fr.U[ci], fr.V[ci]})
			out.Y[y*fr.W+x] = p.Y
			if y%2 == 0 && x%2 == 0 {
				out.U[ci] = p.U
				out.V[ci] = p.V
			}
		}
	}
	return out
}

// FMap maps a function over the video's frames:
// video → (frame → frame) → video. Frames are processed concurrently on
// the default worker pool and appended in order; f must be pure.
func FMap(v *video.Video, f func(*video.Frame) *video.Frame) *video.Video {
	return mapFrames(v, f)
}

// JoinP joins two videos by pixel coordinate and applies a projection to
// each pixel pair: video → video → (pixel → pixel → pixel) → video.
// The videos must have equal resolution; the output length is the
// shorter of the two.
func JoinP(a, b *video.Video, proj func(Pixel, Pixel) Pixel) (*video.Video, error) {
	return joinVideos(a, b, func(fa, fb *video.Frame) *video.Frame {
		return JoinPFrame(fa, fb, proj)
	})
}

// joinVideos pairs frames of two equal-resolution videos and applies a
// pure two-frame kernel to each pair concurrently, in frame order.
func joinVideos(a, b *video.Video, kernel func(fa, fb *video.Frame) *video.Frame) (*video.Video, error) {
	aw, ah := a.Resolution()
	bw, bh := b.Resolution()
	if aw != bw || ah != bh {
		return nil, fmt.Errorf("queries: JoinP resolution mismatch %dx%d vs %dx%d", aw, ah, bw, bh)
	}
	n := len(a.Frames)
	if len(b.Frames) < n {
		n = len(b.Frames)
	}
	frames, _ := parallel.Map(parallel.Default(), n, func(i int) (*video.Frame, error) {
		return kernel(a.Frames[i], b.Frames[i]), nil
	})
	out := video.NewVideo(a.FPS)
	for _, fr := range frames {
		out.Append(fr)
	}
	return out, nil
}

// JoinPFrame joins two equally-sized frames pixel-wise.
func JoinPFrame(fa, fb *video.Frame, proj func(Pixel, Pixel) Pixel) *video.Frame {
	// Pooled output: the loop overwrites every luma and chroma sample
	// (see PMapFrame).
	out := getFrame(fa.W, fa.H)
	out.Index = fa.Index
	cw := fa.ChromaW()
	for y := 0; y < fa.H; y++ {
		for x := 0; x < fa.W; x++ {
			ci := y/2*cw + x/2
			pa := Pixel{fa.Y[y*fa.W+x], fa.U[ci], fa.V[ci]}
			pb := Pixel{fb.Y[y*fb.W+x], fb.U[ci], fb.V[ci]}
			p := proj(pa, pb)
			out.Y[y*fa.W+x] = p.Y
			if y%2 == 0 && x%2 == 0 {
				out.U[ci] = p.U
				out.V[ci] = p.V
			}
		}
	}
	return out
}

// OmegaCoalesce is the ω-coalesce projection of Equation 1: b when b is
// not the null color, a otherwise.
func OmegaCoalesce(a, b Pixel) Pixel {
	if !IsOmega(b) {
		return b
	}
	return a
}

// Interpolate resamples every frame to (w, h) using bilinear
// interpolation: video → (frame → N² → frame) → N² → video.
func Interpolate(v *video.Video, w, h int) *video.Video {
	return FMap(v, func(f *video.Frame) *video.Frame { return f.BilinearResize(w, h) })
}

// Sample downsamples every frame to the lower resolution (w, h):
// video → N² → video.
func Sample(v *video.Video, w, h int) *video.Video {
	return FMap(v, func(f *video.Frame) *video.Frame { return f.Downsample(w, h) })
}

// Window produces, for each frame i, the window of m frames starting at
// i (clamped at the end of the video), supporting windowed aggregation.
func Window(v *video.Video, m int) [][]*video.Frame {
	if m < 1 {
		m = 1
	}
	out := make([][]*video.Frame, len(v.Frames))
	for i := range v.Frames {
		end := i + m
		if end > len(v.Frames) {
			end = len(v.Frames)
		}
		out[i] = v.Frames[i:end]
	}
	return out
}

// AggregateMean computes the per-pixel mean frame of a window — the
// background reference frame b_j of query Q2(d).
func AggregateMean(window []*video.Frame) *video.Frame {
	if len(window) == 0 {
		return nil
	}
	w, h := window[0].W, window[0].H
	out := getFrame(w, h) // every sample written below
	n := len(window)
	ln, lc := len(out.Y), len(out.U)
	sp := sumScratch(ln + 2*lc)
	sums := *sp
	sumY := sums[:ln]
	sumU := sums[ln : ln+lc]
	sumV := sums[ln+lc:]
	for _, f := range window {
		for i, v := range f.Y {
			sumY[i] += int(v)
		}
		for i, v := range f.U {
			sumU[i] += int(v)
		}
		for i, v := range f.V {
			sumV[i] += int(v)
		}
	}
	for i := range sumY {
		out.Y[i] = byte((sumY[i] + n/2) / n)
	}
	for i := range sumU {
		out.U[i] = byte((sumU[i] + n/2) / n)
		out.V[i] = byte((sumV[i] + n/2) / n)
	}
	sumPool.Put(sp)
	return out
}

// Region is one spatial partition of a frame sequence.
type Region struct {
	X, Y  int // origin within the source frame
	Video *video.Video
}

// Partition cuts every frame into tiles of size (dx, dy) and returns one
// sub-video per tile position (row-major). Edge tiles are smaller when
// the resolution is not an exact multiple.
func Partition(v *video.Video, dx, dy int) ([]Region, error) {
	w, h := v.Resolution()
	if dx <= 0 || dy <= 0 {
		return nil, fmt.Errorf("queries: invalid partition size %dx%d", dx, dy)
	}
	var regions []Region
	for y := 0; y < h; y += dy {
		for x := 0; x < w; x += dx {
			rv := video.NewVideo(v.FPS)
			for _, f := range v.Frames {
				rv.Append(f.Crop(x, y, min(x+dx, w), min(y+dy, h)))
			}
			regions = append(regions, Region{X: x, Y: y, Video: rv})
		}
	}
	return regions, nil
}

// Subquery re-encodes each region at its assigned bitrate (bitrates are
// cycled when fewer than regions) and decodes it back, returning the
// quality-degraded regions. This is the encoder(B) subquery of Q3.
func Subquery(regions []Region, bitratesKbps []int, preset codec.Preset) ([]Region, error) {
	if len(bitratesKbps) == 0 {
		return nil, fmt.Errorf("queries: no bitrates given")
	}
	// Regions are independent encode→decode round trips; run them on the
	// worker pool. Errors are collected per region and reported in index
	// order so failures are deterministic under concurrency.
	out := make([]Region, len(regions))
	errs := make([]error, len(regions))
	parallel.ForEach(parallel.Default(), len(regions), func(i int) error {
		r := regions[i]
		cfg := codec.Config{
			BitrateKbps: bitratesKbps[i%len(bitratesKbps)],
			Preset:      preset,
			FPS:         r.Video.FPS,
			QP:          28,
		}
		enc, err := codec.EncodeVideo(r.Video, cfg)
		if err != nil {
			errs[i] = fmt.Errorf("queries: subquery region %d: %w", i, err)
			return nil
		}
		dec, err := enc.Decode()
		if err != nil {
			errs[i] = fmt.Errorf("queries: subquery region %d decode: %w", i, err)
			return nil
		}
		out[i] = Region{X: r.X, Y: r.Y, Video: dec}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Recombine stitches partitioned regions back into full frames of the
// original resolution (w, h).
func Recombine(regions []Region, w, h, fps int) (*video.Video, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("queries: no regions to recombine")
	}
	n := len(regions[0].Video.Frames)
	out := video.NewVideo(fps)
	for i := 0; i < n; i++ {
		f := video.NewFrame(w, h)
		f.Index = i
		for _, r := range regions {
			src := r.Video.Frames[i]
			for y := 0; y < src.H; y++ {
				ty := r.Y + y
				if ty >= h {
					break
				}
				copy(f.Y[ty*w+r.X:ty*w+r.X+src.W], src.Y[y*src.W:(y+1)*src.W])
			}
			// Chroma planes (half resolution).
			scw, dcw := src.ChromaW(), f.ChromaW()
			for y := 0; y < src.ChromaH(); y++ {
				ty := r.Y/2 + y
				if ty >= f.ChromaH() {
					break
				}
				copy(f.U[ty*dcw+r.X/2:ty*dcw+r.X/2+scw], src.U[y*scw:(y+1)*scw])
				copy(f.V[ty*dcw+r.X/2:ty*dcw+r.X/2+scw], src.V[y*scw:(y+1)*scw])
			}
		}
		out.Append(f)
	}
	return out, nil
}
