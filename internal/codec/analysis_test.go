package codec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Reference formulations of the analysis-pass kernels, kept verbatim
// from the pre-SWAR encoder: the kernels in plane.go must reproduce their
// decisions on every input (DESIGN.md §5.9). The quantizer's reference
// is refQuantizeBlock in transform_fast_test.go.

func refSADBlock(cur, ref *plane, cx, cy, mvx, mvy, bs int, earlyOut int) int {
	sum := 0
	for y := 0; y < bs; y++ {
		curRow := cur.pix[(cy+y)*cur.w+cx:]
		ry := cy + y + mvy
		inY := ry >= 0 && ry < ref.h
		for x := 0; x < bs; x++ {
			var r byte
			rx := cx + x + mvx
			if inY && rx >= 0 && rx < ref.w {
				r = ref.pix[ry*ref.w+rx]
			} else {
				r = ref.at(rx, ry)
			}
			d := int(curRow[x]) - int(r)
			if d < 0 {
				d = -d
			}
			sum += d
		}
		if sum > earlyOut {
			return sum
		}
	}
	return sum
}

func refMotionSearch(cur, ref *plane, cx, cy, searchRange, px, py int) (mvx, mvy, sad int) {
	best := refSADBlock(cur, ref, cx, cy, 0, 0, 16, 1<<30)
	bx, by := 0, 0
	if px != 0 || py != 0 {
		if s := refSADBlock(cur, ref, cx, cy, px, py, 16, best); s < best {
			best, bx, by = s, px, py
		}
	}
	step := searchRange / 2
	if step < 1 {
		step = 1
	}
	for step >= 1 {
		improved := true
		for improved {
			improved = false
			for _, d := range [8][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}, {-1, -1}, {-1, 1}, {1, -1}, {1, 1}} {
				nx, ny := bx+d[0]*step, by+d[1]*step
				if nx < -searchRange || nx > searchRange || ny < -searchRange || ny > searchRange {
					continue
				}
				if s := refSADBlock(cur, ref, cx, cy, nx, ny, 16, best); s < best {
					best, bx, by = s, nx, ny
					improved = true
				}
			}
		}
		step /= 2
	}
	return bx, by, best
}

// randomPlane is a luma-aligned plane of seeded noise.
func randomPlane(w, h int, rng *rand.Rand) *plane {
	p := newPlane(w, h, 16)
	rng.Read(p.pix)
	return p
}

// TestSADMatchesReference pins the SWAR kernel, its 16×16 interior loop
// and its edge path: on random planes, for both block sizes, from blocks
// in each corner, on each edge and inside the plane, with vectors that
// stay inside (flush with every edge among them), cross each of the four
// edges and both pairs of corners, and leave the plane entirely. Both
// kernels test the bound after every row, so the SAD equals the
// reference's whether or not it aborted — and a 16×16 block is made to
// abort at each of its 16 rows in turn.
func TestSADMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const w, h = 64, 48
	cur, ref := randomPlane(w, h, rng), randomPlane(w, h, rng)
	// A near-copy reference gives small SADs, so tight bounds both pass
	// and abort.
	near := newPlane(w, h, 16)
	for i, v := range cur.pix {
		near.pix[i] = v ^ byte(rng.Intn(4))
	}
	for _, ref := range []*plane{ref, near} {
		for _, bs := range []int{8, 16} {
			for _, pos := range [][2]int{{0, 0}, {w - bs, 0}, {0, h - bs}, {w - bs, h - bs}, {16, 16},
				{0, 16}, {w - bs, 16}, {16, 0}, {16, h - bs}} {
				for mvy := -17; mvy <= 17; mvy++ {
					for mvx := -17; mvx <= 17; mvx++ {
						full := refSADBlock(cur, ref, pos[0], pos[1], mvx, mvy, bs, 1<<30)
						bounds := []int{1 << 30, full, full - 1, full / 2, full / 7, 0}
						if bs == 16 {
							// One bound per row: just under the sum through it.
							sum := 0
							for y := 0; y < bs; y++ {
								for x := 0; x < bs; x++ {
									d := int(cur.pix[(pos[1]+y)*w+pos[0]+x]) - int(ref.at(pos[0]+x+mvx, pos[1]+y+mvy))
									sum += max(d, -d)
								}
								bounds = append(bounds, sum-1)
							}
						}
						for _, bound := range bounds {
							want := refSADBlock(cur, ref, pos[0], pos[1], mvx, mvy, bs, bound)
							got := sadBlock(cur, ref, pos[0], pos[1], mvx, mvy, bs, bound)
							if got != want {
								t.Fatalf("bs %d at %v mv (%d,%d) bound %d: SAD %d, want %d", bs, pos, mvx, mvy, bound, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestCopyMBMatchesReference pins copyMB's word-at-a-time interior rows
// against clamped per-sample reads, for both block sizes, with the vectors
// of TestSADMatchesReference; nothing outside the block may change.
func TestCopyMBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const w, h = 64, 48
	ref, fill := randomPlane(w, h, rng), randomPlane(w, h, rng)
	got, want := newPlane(w, h, 16), newPlane(w, h, 16)
	for _, bs := range []int{8, 16} {
		for _, pos := range [][2]int{{0, 0}, {w - bs, 0}, {0, h - bs}, {w - bs, h - bs}, {16, 16}, {24, 8}} {
			for mvy := -17; mvy <= 17; mvy++ {
				for mvx := -17; mvx <= 17; mvx++ {
					copy(got.pix, fill.pix)
					copy(want.pix, fill.pix)
					copyMB(got, ref, pos[0], pos[1], bs, mvx, mvy)
					for y := 0; y < bs; y++ {
						for x := 0; x < bs; x++ {
							want.pix[(pos[1]+y)*w+pos[0]+x] = ref.at(pos[0]+x+mvx, pos[1]+y+mvy)
						}
					}
					if !bytes.Equal(got.pix, want.pix) {
						t.Fatalf("bs %d at %v mv (%d,%d): copied block diverges from per-sample reads", bs, pos, mvx, mvy)
					}
				}
			}
		}
	}
}

// TestMotionSearchDecisionIdentical pins the pruned search: the vector
// and SAD it returns equal the unpruned search's at every macroblock, for
// both presets' ranges, with the encoder's predictor chain and with
// arbitrary predictors, on translating structured content, noise, an
// identical reference (best is 0 at the first probe), an all-zero plane,
// a flat one, and a reference that departs from the frame at a different
// row of each macroblock (candidates abort at every row).
func TestMotionSearchDecisionIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const w, h = 96, 64
	type pair struct {
		name     string
		cur, ref *plane
	}
	var pairs []pair
	mixed := mixedVideo(w, h, 4, 21)
	for i := 1; i < len(mixed.Frames); i++ {
		cur, ref := newPlane(w, h, 16), newPlane(w, h, 16)
		cur.loadFrom(mixed.Frames[i].Y, w, h)
		ref.loadFrom(mixed.Frames[i-1].Y, w, h)
		pairs = append(pairs, pair{fmt.Sprintf("mixed%d", i), cur, ref})
	}
	noise := randomPlane(w, h, rng)
	shifted := newPlane(w, h, 16) // noise translated by (5, −3): exact matches off centre
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			shifted.pix[y*w+x] = noise.at(x+5, y-3)
		}
	}
	flat := newPlane(w, h, 16)
	for i := range flat.pix {
		flat.pix[i] = 77
	}
	late := newPlane(w, h, 16) // the shifted frame, wrong from row mb%16 of every macroblock down
	copy(late.pix, shifted.pix)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if mb := y/16*(w/16) + x/16; y%16 >= mb%16 {
				late.pix[y*w+x] += byte(40 + rng.Intn(60))
			}
		}
	}
	pairs = append(pairs,
		pair{"late-rows", late, noise},
		pair{"noise", randomPlane(w, h, rng), noise},
		pair{"shifted", shifted, noise},
		pair{"identical", noise, noise},
		pair{"zero", newPlane(w, h, 16), newPlane(w, h, 16)},
		pair{"flat-vs-noise", flat, noise},
		pair{"noise-vs-flat", noise, flat},
	)
	for _, p := range pairs {
		for _, sr := range []int{PresetH264.SearchRange, PresetHEVC.SearchRange} {
			for cy := 0; cy < h; cy += 16 {
				px, py := 0, 0 // the encoder's chain: previous macroblock's vector
				for cx := 0; cx < w; cx += 16 {
					for _, pred := range [][2]int{{px, py}, {rng.Intn(2*sr+1) - sr, rng.Intn(2*sr+1) - sr}} {
						wx, wy, ws := refMotionSearch(p.cur, p.ref, cx, cy, sr, pred[0], pred[1])
						gx, gy, gs := motionSearch(p.cur, p.ref, cx, cy, sr, pred[0], pred[1])
						if gx != wx || gy != wy || gs != ws {
							t.Fatalf("%s range %d mb (%d,%d) pred %v: got (%d,%d) sad %d, want (%d,%d) sad %d",
								p.name, sr, cx, cy, pred, gx, gy, gs, wx, wy, ws)
						}
						px, py = wx, wy
					}
				}
			}
		}
	}
}

// certificateEdgeSeeds yields residuals (one int8 per sample) that sit on
// the zero certificates' edges at qp: Σ|res| around the ¼·Σ|res| bound as
// impulses and as a spread of ±1s, flat blocks around the DC threshold,
// single-frequency blocks around the AC dead zone — plus noise at a
// fraction of the step.
func certificateEdgeSeeds(qp int) [][]byte {
	var seeds [][]byte
	t := tablesFor(qp)
	edge := int(4 * t.ZeroAC)
	for k := -2; k <= 2; k++ {
		n := edge + k
		if n < 0 {
			continue
		}
		impulses, spread := make([]byte, 64), make([]byte, 64)
		for i, left := 0, n; left > 0; i = (i + 1) % 64 {
			v := min(left, 100)
			impulses[(i*27+5)%64] += byte(int8(v) * int8(1-2*(i&1)))
			left -= v
		}
		for i := 0; i < n; i++ {
			cell := (i * 37) % 64
			spread[cell] += byte(int8(1 - 2*(cell&1)))
		}
		seeds = append(seeds, impulses, spread)
	}
	for k := -1; k <= 1; k++ {
		// A flat block of value v has DC 8v and nothing else.
		flat := make([]byte, 64)
		v := int(t.ZeroDC/8) + k
		if v < -128 || v > 127 {
			continue
		}
		for i := range flat {
			flat[i] = byte(int8(v))
		}
		seeds = append(seeds, flat)
		// One horizontal and one diagonal basis function, scaled so
		// the peak coefficient lands near the dead-zone edge.
		for _, uv := range [][2]int{{1, 0}, {3, 5}} {
			wave := make([]byte, 64)
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					a := (t.ZeroAC + float64(k)) * dctBasis[uv[0]][x] * dctBasis[uv[1]][y]
					wave[y*8+x] = byte(int8(max(-128, min(127, a))))
				}
			}
			seeds = append(seeds, wave)
		}
	}
	// Noise at a fraction of the step: mostly-zero blocks of every kind.
	rng := rand.New(rand.NewSource(int64(qp)))
	for _, frac := range []float64{0.25, 0.5, 1} {
		amp := min(127, 1+int(t.Step*frac))
		noise := make([]byte, 64)
		for i := range noise {
			noise[i] = byte(int8(rng.Intn(2*amp+1) - amp))
		}
		seeds = append(seeds, noise)
	}
	return seeds
}

// FuzzQuantizeZeroBlock pins the zero certificates against the exact
// reference quantizer at every encoder QP. The fuzz input is the residual
// itself, one int8 per sample; the seeds sit on the certificates' edges
// (certificateEdgeSeeds).
func FuzzQuantizeZeroBlock(f *testing.F) {
	for qp := qpMin; qp <= qpMax; qp++ {
		for _, seed := range certificateEdgeSeeds(qp) {
			f.Add(uint8(qp), seed)
		}
	}
	f.Fuzz(func(t *testing.T, qp uint8, data []byte) {
		if qp > qpMax {
			qp %= qpMax + 1
		}
		var res, got, want [64]int32
		for i := 0; i < 64 && i < len(data); i++ {
			res[i] = int32(int8(data[i]))
		}
		gotNZ := maskQuantize(&res, int(qp), &got)
		wantNZ := refQuantizeBlock(&res, int(qp), &want)
		if got != want || gotNZ != wantNZ {
			t.Fatalf("qp %d residual %v: levels %v coded %v, want %v coded %v", qp, res, got, gotNZ, want, wantNZ)
		}
	})
}
