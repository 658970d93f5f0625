package codec

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/video"
)

// obsEnabled turns the metrics registry on when the benchmark runs with
// VR_OBS=1, so the hot benchmarks can be run both ways by hand; the
// tracked overhead figure is metrics.enabled_overhead_frac in the traced
// pass of `bash bench/run.sh` (bench/README.md).
func obsEnabled(b *testing.B) {
	b.Helper()
	if os.Getenv("VR_OBS") == "1" {
		metrics.SetEnabled(true)
		b.Cleanup(func() { metrics.SetEnabled(false) })
	}
}

// Codec micro-benchmarks: encode/decode throughput by preset and the
// QP / rate-distortion sweep that underlies Q3's per-region bitrate
// assignment.

func BenchmarkEncode(b *testing.B) {
	for _, preset := range []Preset{PresetH264, PresetHEVC} {
		b.Run(preset.Name, func(b *testing.B) {
			src := gradientVideo(192, 108, 15)
			cfg := Config{QP: 24, Preset: preset}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := EncodeVideo(src, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(192 * 108 * 15 * 3 / 2))
		})
	}
}

// residualBlocks collects the residual blocks an encode of v analyses,
// each with its Σ|res|: the intra blocks of the first frame and, for
// every later frame, each macroblock's four luma and two chroma blocks
// after motion search against the previous source frame.
func residualBlocks(v *video.Video) (blocks [][64]int32, sums []int64) {
	w, h := v.Resolution()
	load := func(f *video.Frame) [3]*plane {
		ps := [3]*plane{newPlane(w, h, 16), newPlane((w+1)/2, (h+1)/2, 8), newPlane((w+1)/2, (h+1)/2, 8)}
		ps[0].loadFrom(f.Y, f.W, f.H)
		ps[1].loadFrom(f.U, f.ChromaW(), f.ChromaH())
		ps[2].loadFrom(f.V, f.ChromaW(), f.ChromaH())
		return ps
	}
	add := func(extract func(res *[64]int32) int64) {
		var res [64]int32
		sums = append(sums, extract(&res))
		blocks = append(blocks, res)
	}
	var ref [3]*plane
	var ext extPlane
	for i, f := range v.Frames {
		cur := load(f)
		if i > 0 {
			ext.extend(ref[0], PresetH264.SearchRange)
		}
		for cy := 0; cy < cur[0].h; cy += 16 {
			for cx := 0; cx < cur[0].w; cx += 16 {
				mvx, mvy := 0, 0
				if i > 0 {
					mvx, mvy, _ = motionSearch(cur[0], &ext, cx, cy, PresetH264.SearchRange, 0, 0)
				}
				for b := 0; b < 6; b++ {
					p, x0, y0, bmx, bmy := 0, cx+b%2*8, cy+b/2*8, mvx, mvy
					if b >= 4 {
						p, x0, y0, bmx, bmy = b-3, cx/2, cy/2, mvx/2, mvy/2
					}
					if i == 0 {
						add(func(res *[64]int32) int64 { return extractIntra(cur[p], x0, y0, res) })
					} else {
						add(func(res *[64]int32) int64 { return extractInter(cur[p], ref[p], x0, y0, bmx, bmy, res) })
					}
				}
			}
		}
		ref = cur
	}
	return blocks, sums
}

// BenchmarkEncodeBlocks is the encoder's block path by itself: quantize,
// reconstruct (quantizeResidual does both) and entropy-code every
// residual block of the mixed_rc golden source, at the result writer's QP
// and one coarser. ns/block is what an encoder change is sized with;
// coded-share says how many of the blocks keep a level.
func BenchmarkEncodeBlocks(b *testing.B) {
	var blocks [][64]int32
	var sums []int64
	for _, gc := range goldenCases() {
		if gc.name == "mixed_rc" {
			blocks, sums = residualBlocks(gc.src())
		}
	}
	for _, qp := range []int{18, 22} {
		b.Run(fmt.Sprintf("qp=%d", qp), func(b *testing.B) {
			t := tablesFor(qp)
			var levels [64]int32
			w := &bitWriter{}
			coded := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coded = 0
				w.buf, w.cur, w.nCur = w.buf[:0], 0, 0
				for j := range blocks {
					res := blocks[j]
					mask := quantizeResidual(&res, sums[j], t, &levels)
					emitBlock(w, &levels, mask)
					if mask != 0 {
						coded++
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blocks)), "ns/block")
			b.ReportMetric(float64(coded)/float64(len(blocks)), "coded-share")
		})
	}
}

// BenchmarkFDCT8 times the forward transform and quantizer alone over the
// residual blocks of the mixed_rc golden source at QP 18: fdctQuant, which
// quantizeResidual calls (the SSE2 twin on amd64), against
// fdctQuantGeneric, its Go twin.
func BenchmarkFDCT8(b *testing.B) {
	var blocks [][64]int32
	for _, gc := range goldenCases() {
		if gc.name == "mixed_rc" {
			blocks, _ = residualBlocks(gc.src())
		}
	}
	for _, k := range []struct {
		name string
		fdct func(*[64]int32, *qpTables, *[64]int16) uint64
	}{{"fdctQuant", fdctQuant}, {"fdctQuantGeneric", fdctQuantGeneric}} {
		b.Run(k.name, func(b *testing.B) {
			var lv [64]int16
			for i := 0; i < b.N; i++ {
				for j := range blocks {
					k.fdct(&blocks[j], tablesFor(18), &lv)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blocks)), "ns/block")
		})
	}
}

// BenchmarkIDCT8 times the inverse transform alone over the coded blocks
// of the mixed_rc golden source at QP 18, as quantizeResidual hands them
// over: idct8 (the SSE2 kernel on amd64 past its DC and top-row
// shortcuts) against the Go twin's passes.
func BenchmarkIDCT8(b *testing.B) {
	type block struct {
		coefs            [64]int32
		rowMask, colMask uint8
	}
	var blocks []block
	for _, gc := range goldenCases() {
		if gc.name != "mixed_rc" {
			continue
		}
		res, _ := residualBlocks(gc.src())
		for i := range res {
			var levels [64]int32
			quantizeBlock(&res[i], 18, &levels)
			var bl block
			for j, l := range levels {
				if l != 0 {
					z := zigzag[j]
					bl.coefs[z] = l * tablesFor(18).Deq[z]
					bl.rowMask |= 1 << uint(z>>3)
					bl.colMask |= 1 << uint(z&7)
				}
			}
			if bl.rowMask != 0 {
				blocks = append(blocks, bl)
			}
		}
	}
	for _, k := range []struct {
		name string
		idct func(*[64]int32, *[64]int32, uint8, uint8)
	}{{"idct8", idct8}, {"idct8Generic", func(src, dst *[64]int32, rowMask, _ uint8) { idct8Generic(src, dst, rowMask) }}} {
		b.Run(k.name, func(b *testing.B) {
			var res [64]int32
			for i := 0; i < b.N; i++ {
				for j := range blocks {
					k.idct(&blocks[j].coefs, &res, blocks[j].rowMask, blocks[j].colMask)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blocks)), "ns/block")
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	src := gradientVideo(192, 108, 15)
	enc, err := EncodeVideo(src, Config{QP: 24})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(enc.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeStream is the decode loop as an engine runs it: one
// Decoder walks a golden stream access unit by access unit and every
// frame is kept (nothing goes back to the pool, as with a cached or
// forwarded frame), so the figure includes the frame allocation.
// mixed_rc is dense AC blocks under rate control; gradient_h264_qp24 is
// mostly DC-only and skipped macroblocks.
func BenchmarkDecodeStream(b *testing.B) {
	for _, gc := range goldenCases() {
		if gc.name != "mixed_rc" && gc.name != "gradient_h264_qp24" {
			continue
		}
		b.Run(gc.name, func(b *testing.B) {
			enc, err := EncodeVideo(gc.src(), gc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			dec, err := NewDecoder(enc.Config)
			if err != nil {
				b.Fatal(err)
			}
			kept := make([]*video.Frame, len(enc.Frames))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, f := range enc.Frames {
					if kept[j], err = dec.Decode(f.Data); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(enc.Frames)), "us/frame")
		})
	}
}

func BenchmarkQPSweep(b *testing.B) {
	src := gradientVideo(128, 96, 10)
	for _, qp := range []int{8, 24, 40} {
		b.Run(fmt.Sprintf("qp=%d", qp), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				enc, err := EncodeVideo(src, Config{QP: qp})
				if err != nil {
					b.Fatal(err)
				}
				size = enc.Size()
			}
			b.ReportMetric(float64(size), "bytes")
		})
	}
}

func BenchmarkMotionSearchRange(b *testing.B) {
	src := gradientVideo(192, 108, 10)
	for _, r := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("range=%d", r), func(b *testing.B) {
			cfg := Config{QP: 24, Preset: Preset{Name: "custom", ID: 1, SearchRange: r}}
			for i := 0; i < b.N; i++ {
				if _, err := EncodeVideo(src, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// searchCandidates replays motionSearch's walk — the same seeds, steps,
// visited set and zero exit — with the reference's full SADs, and returns
// the vectors at which motionSearch calls sad16, and the vector it picks.
// A SAD that motionSearch aborts exceeds best either way, so full sums
// take the same branches.
func searchCandidates(cur, ref *plane, cx, cy, searchRange, px, py int) (cands [][2]int, bx, by int) {
	seen := map[[2]int]bool{}
	eval := func(x, y, bound int) int {
		seen[[2]int{x, y}] = true
		cands = append(cands, [2]int{x, y})
		return refSADBlock(cur, ref, cx, cy, x, y, 16, bound)
	}
	best := eval(0, 0, 1<<30)
	if best > 0 && (px != 0 || py != 0) {
		if s := eval(px, py, best); s < best {
			best, bx, by = s, px, py
		}
	}
	for step := max(searchRange/2, 1); step >= 1; step /= 2 {
		for improved := true; improved; {
			improved = false
			for _, d := range [8][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}, {-1, -1}, {-1, 1}, {1, -1}, {1, 1}} {
				if best == 0 {
					return cands, bx, by
				}
				nx, ny := bx+d[0]*step, by+d[1]*step
				if nx < -searchRange || nx > searchRange || ny < -searchRange || ny > searchRange || seen[[2]int{nx, ny}] {
					continue
				}
				if s := eval(nx, ny, best); s < best {
					best, bx, by = s, nx, ny
					improved = true
				}
			}
		}
	}
	return cands, bx, by
}

// BenchmarkMotionSearch times motionSearch at the bench's frame size
// (192×108, padded to a 12×7 macroblock grid, 34 of whose 84 macroblocks
// touch the border) on the mixed source, for both presets, each
// macroblock seeded with its left neighbour's vector. ns/cand is the time
// per candidate, one sad16 call each; edge-share is the share of
// candidates whose 16×16 reference block leaves the unextended plane,
// the ones the extended reference spares a clamped path.
func BenchmarkMotionSearch(b *testing.B) {
	const w, h = 192, 108
	v := mixedVideo(w, h, 8, 21)
	for _, preset := range []Preset{PresetH264, PresetHEVC} {
		b.Run(preset.Name, func(b *testing.B) {
			sr := preset.SearchRange
			curs := make([]*plane, len(v.Frames)-1)
			exts := make([]extPlane, len(curs))
			cands, edge := 0, 0
			for i := range curs {
				cur, ref := newPlane(w, h, 16), newPlane(w, h, 16)
				cur.loadFrom(v.Frames[i+1].Y, w, h)
				ref.loadFrom(v.Frames[i].Y, w, h)
				curs[i] = cur
				exts[i].extend(ref, sr)
				for cy := 0; cy < cur.h; cy += 16 {
					px, py := 0, 0
					for cx := 0; cx < cur.w; cx += 16 {
						cs, mvx, mvy := searchCandidates(cur, ref, cx, cy, sr, px, py)
						if gx, gy, _ := motionSearch(cur, &exts[i], cx, cy, sr, px, py); gx != mvx || gy != mvy {
							b.Fatalf("frame %d mb (%d,%d): the replayed walk picks (%d,%d), motionSearch (%d,%d)", i+1, cx, cy, mvx, mvy, gx, gy)
						}
						for _, c := range cs {
							if rx, ry := cx+c[0], cy+c[1]; rx < 0 || ry < 0 || rx+16 > ref.w || ry+16 > ref.h {
								edge++
							}
						}
						cands += len(cs)
						px, py = mvx, mvy
					}
				}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i, cur := range curs {
					for cy := 0; cy < cur.h; cy += 16 {
						px, py := 0, 0
						for cx := 0; cx < cur.w; cx += 16 {
							px, py, _ = motionSearch(cur, &exts[i], cx, cy, sr, px, py)
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cands), "ns/cand")
			b.ReportMetric(float64(edge)/float64(cands), "edge-share")
		})
	}
}

// BenchmarkEncodeParallelME measures the row-parallel motion-estimation
// pass at increasing worker counts. On a single-core host all counts
// collapse to the serial path; compare counts on a multi-core machine
// with benchstat.
func BenchmarkEncodeParallelME(b *testing.B) {
	src := gradientVideo(320, 192, 10)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{QP: 24, Workers: workers}
			b.ReportAllocs()
			b.SetBytes(int64(320 * 192 * 10 * 3 / 2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := EncodeVideo(src, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeRange measures GOP-bounded partial decode against the
// full-clip baseline for a batch of short windows — each 20% of the
// clip, starting mid-GOP so the seed run is exercised. It reports two
// metrics: frames-ratio (frames decoded / frames requested,
// the seek-overhead bound — at GOP 5 and 12-frame windows it stays
// well under 1.5) and, on the window case, speedup (wall-clock of the
// full-decode batch over the ranged batch).
func BenchmarkDecodeRange(b *testing.B) {
	obsEnabled(b)
	src := gradientVideo(192, 108, 60)
	enc, err := EncodeVideo(src, Config{QP: 24, GOP: 5})
	if err != nil {
		b.Fatal(err)
	}
	windows := [][2]int{{7, 19}, {23, 35}, {41, 53}}
	requested, decoded := 0, 0
	for _, w := range windows {
		requested += w[1] - w[0]
		decoded += enc.RangeCost(w[0], w[1])
	}
	b.Run("full-clip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for range windows {
				if _, err := enc.Decode(); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(enc.Frames)*len(windows))/float64(requested), "frames-ratio")
	})
	b.Run("window-20pct", func(b *testing.B) {
		// Reference cost of serving the same batch by whole-clip decode,
		// timed here so the speedup lands in this bench's metric row.
		start := time.Now()
		for range windows {
			if _, err := enc.Decode(); err != nil {
				b.Fatal(err)
			}
		}
		full := time.Since(start)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, w := range windows {
				if _, err := enc.DecodeRange(w[0], w[1]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		per := b.Elapsed() / time.Duration(b.N)
		b.ReportMetric(full.Seconds()/per.Seconds(), "speedup")
		b.ReportMetric(float64(decoded)/float64(requested), "frames-ratio")
	})
}

// BenchmarkDecodeParallel measures GOP-parallel decode against the
// serial path on a multi-GOP stream; speedup tracks available cores
// (chains decode on independent decoders).
// BenchmarkDecodeTiles measures the spatial-selectivity win of tile
// mode: decoding a single-tile ROI of a 2x2-tiled stream against the
// full-frame decode of the same stream. Both run serially (workers=1)
// so the ratio is pure work reduction, not parallelism.
func BenchmarkDecodeTiles(b *testing.B) {
	src := gradientVideo(192, 108, 30)
	enc, err := EncodeVideo(src, Config{QP: 24, GOP: 5, TileRows: 2, TileCols: 2})
	if err != nil {
		b.Fatal(err)
	}
	n := len(enc.Frames)
	b.Run("full", func(b *testing.B) {
		b.SetBytes(int64(enc.Size()))
		for i := 0; i < b.N; i++ {
			if _, err := enc.DecodeTiles(1, 0, n, []int{0, 1, 2, 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("roi1of4", func(b *testing.B) {
		b.SetBytes(int64(enc.Size()))
		for i := 0; i < b.N; i++ {
			if _, err := enc.DecodeTiles(1, 0, n, []int{0}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeParallel(b *testing.B) {
	src := gradientVideo(192, 108, 30)
	enc, err := EncodeVideo(src, Config{QP: 24, GOP: 5})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(enc.Size()))
			for i := 0; i < b.N; i++ {
				if _, err := enc.DecodeParallel(workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
