package codec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Reference formulations of the analysis-pass kernels, kept verbatim
// from the pre-SWAR encoder: the kernels in plane.go and
// kernels_{generic,amd64}.go must reproduce their decisions on every
// input (DESIGN.md §5.9). The quantizer's reference
// is quantizeBlock in transform_test.go.

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

// TestSADMatchesReference pins the SAD kernels on the routes the encoder
// takes them. sad16 runs on the extended reference, at both presets'
// ranges as its margin: from every macroblock of the plane (corners,
// edges and inside) with every vector in range, so candidates stay
// inside, sit flush with each edge, and cross each edge and both pairs of
// corners by up to the whole margin. sad8 runs as the chroma skip check
// does, at the zero vector of every 8×8 block. Both test the bound after
// every row, so the SAD equals the clamped reference's whether or not it
// aborted — and each block is made to abort at each of its rows in turn.
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
	// bounds are the bounds sadRowBounds gives a block of the reference
	// (its samples clamped) and the whole sum's halves and sevenths.
	bounds := func(ref *plane, cx, cy, mvx, mvy, bs int) []int {
		var blk [16 * 16]byte
		for y := 0; y < bs; y++ {
			for x := 0; x < bs; x++ {
				blk[y*bs+x] = ref.at(cx+x+mvx, cy+y+mvy)
			}
		}
		full := refSADBlock(cur, ref, cx, cy, mvx, mvy, bs, 1<<30)
		return append(sadRowBounds(cur.pix[cy*w+cx:], w, blk[:], bs, bs), full/2, full/7)
	}
	for _, ref := range []*plane{ref, near} {
		for _, sr := range []int{PresetH264.SearchRange, PresetHEVC.SearchRange} {
			var ext extPlane
			ext.extend(ref, sr)
			for cy := 0; cy < h; cy += 16 {
				for cx := 0; cx < w; cx += 16 {
					for mvy := -sr; mvy <= sr; mvy++ {
						for mvx := -sr; mvx <= sr; mvx++ {
							for _, bound := range bounds(ref, cx, cy, mvx, mvy, 16) {
								want := refSADBlock(cur, ref, cx, cy, mvx, mvy, 16, bound)
								if got := sad16(cur.pix[cy*w+cx:], w, ext.block(cx+mvx, cy+mvy), ext.stride, bound); got != want {
									t.Fatalf("range %d mb (%d,%d) mv (%d,%d) bound %d: SAD %d, want %d", sr, cx, cy, mvx, mvy, bound, got, want)
								}
							}
						}
					}
				}
			}
		}
		for cy := 0; cy < h; cy += 8 {
			for cx := 0; cx < w; cx += 8 {
				o := cy*w + cx
				for _, bound := range bounds(ref, cx, cy, 0, 0, 8) {
					want := refSADBlock(cur, ref, cx, cy, 0, 0, 8, bound)
					if got := sad8(cur.pix[o:], w, ref.pix[o:], w, bound); got != want {
						t.Fatalf("8×8 at (%d,%d) bound %d: SAD %d, want %d", cx, cy, bound, got, want)
					}
				}
			}
		}
	}
}

// TestExtendedPlaneMatchesAt: every sample of the extended reference, at
// both presets' margins, is the one plane.at clamps to, and a rebuild
// over a poisoned buffer leaves none of the poison.
func TestExtendedPlaneMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := randomPlane(48, 32, rng)
	var ext extPlane
	for _, m := range []int{PresetHEVC.SearchRange, PresetH264.SearchRange, 0} {
		for i := range ext.pix {
			ext.pix[i] = 0xAA
		}
		ext.extend(p, m)
		if len(ext.pix) != (p.w+2*m)*(p.h+2*m) {
			t.Fatalf("margin %d: %d samples, want %d", m, len(ext.pix), (p.w+2*m)*(p.h+2*m))
		}
		for y := -m; y < p.h+m; y++ {
			for x := -m; x < p.w+m; x++ {
				if got, want := ext.pix[(y+m)*ext.stride+x+m], p.at(x, y); got != want {
					t.Fatalf("margin %d (%d,%d): %d, want %d", m, x, y, got, want)
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

// TestMotionSearchDecisionIdentical pins the pruned search over the
// extended reference: the vector and SAD it returns equal the unpruned,
// clamping search's at every macroblock — the border ones among them —
// for both presets' ranges, with the encoder's predictor chain, with
// arbitrary predictors and with predictors at each corner of the range,
// on translating structured content, noise, an
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
			var ext extPlane
			ext.extend(p.ref, sr)
			for cy := 0; cy < h; cy += 16 {
				px, py := 0, 0 // the encoder's chain: previous macroblock's vector
				for cx := 0; cx < w; cx += 16 {
					for _, pred := range [][2]int{{px, py}, {rng.Intn(2*sr+1) - sr, rng.Intn(2*sr+1) - sr},
						{-sr, -sr}, {sr, -sr}, {-sr, sr}, {sr, sr}} {
						wx, wy, ws := refMotionSearch(p.cur, p.ref, cx, cy, sr, pred[0], pred[1])
						gx, gy, gs := motionSearch(p.cur, &ext, cx, cy, sr, pred[0], pred[1])
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

// zeroEdgeSeeds yields residuals (one int8 per sample) that sit on the
// quantizer's zero decisions at qp: Σ|res| around ZeroSum as a spread of
// ±1s and as impulses, the first a negative one at sample 0, where the
// odd rows' largest entries meet and the shifts' flooring adds to its
// magnitude; negative impulses just under the certificate's bound without
// its slack; for eight coefficient positions across the six
// classes, a basis block whose coefficient there lands just short of the
// smallest |Y| that keeps a level, on it and just past it (as far as int8
// samples reach) — plus noise at a fraction of the step.
func zeroEdgeSeeds(qp int) [][]byte {
	var seeds [][]byte
	t := tablesFor(qp)
	for k := -2; k <= 2; k++ {
		n := max(0, int(t.ZeroSum)+k)
		impulses, spread := make([]byte, 64), make([]byte, 64)
		for i, left := 0, n; left > 0; i = (i + 1) % 64 {
			v := min(left, 100)
			impulses[(i*27)%64] += byte(int8(v) * int8(2*(i&1)-1))
			left -= v
		}
		for i := 0; i < n; i++ {
			cell := (i * 37) % 64
			spread[cell] += byte(int8(1 - 2*(cell&1)))
		}
		seeds = append(seeds, impulses, spread)
	}
	var norm [8]float64
	for k, row := range basis8 {
		for _, a := range row {
			norm[k] += float64(a*a) / 64
		}
		norm[k] = math.Sqrt(norm[k])
	}
	// Negative impulses just under the certificate's linear part, the
	// bound without its slack: at some positions the shifts' flooring
	// carries them over a threshold, and the slack is what keeps them coded.
	linear := int64(1<<63 - 1)
	for z := range t.Quant {
		linear = min(linear, (64*t.threshold(z)+rowMax8[z>>3]*rowMax8[z&7]-1)/(rowMax8[z>>3]*rowMax8[z&7]))
	}
	for _, pos := range []int{0, 9, 11, 15, 25, 27, 63} {
		for _, d := range []int64{1, 2} {
			impulse := make([]byte, 64)
			impulse[pos] = byte(int8(-min(max(linear-d, 1), 128)))
			seeds = append(seeds, impulse)
		}
	}
	for _, kj := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2}, {0, 4}, {3, 5}, {7, 7}} {
		k, j := kj[0], kj[1]
		thr := float64(t.threshold(k*8+j)) / (norm[k] * norm[j])
		for _, f := range []float64{0.8, 1, 1.25} {
			wave := make([]byte, 64)
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					a := f * thr * float64(basis8[j][x]) / (8 * norm[j]) * float64(basis8[k][y]) / (8 * norm[k])
					wave[y*8+x] = byte(int8(max(-128, min(127, math.Round(a)))))
				}
			}
			seeds = append(seeds, wave)
		}
	}
	// Noise at a fraction of the step: mostly-zero blocks of every kind.
	rng := rand.New(rand.NewSource(int64(qp)))
	for _, frac := range []float64{0.25, 0.5, 1} {
		amp := min(127, 1+int(stepOf(qp)*frac))
		noise := make([]byte, 64)
		for i := range noise {
			noise[i] = byte(int8(rng.Intn(2*amp+1) - amp))
		}
		seeds = append(seeds, noise)
	}
	return seeds
}

// FuzzQuantizeZeroBlock pins the mask quantizer's zero decisions against
// the array form at every encoder QP. The fuzz input is the residual
// itself, one int8 per sample; the seeds sit on the zero thresholds
// (zeroEdgeSeeds).
func FuzzQuantizeZeroBlock(f *testing.F) {
	for qp := qpMin; qp <= qpMax; qp++ {
		for _, seed := range zeroEdgeSeeds(qp) {
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
		wantNZ := quantizeBlock(&res, int(qp), &want)
		if got != want || gotNZ != wantNZ {
			t.Fatalf("qp %d residual %v: levels %v coded %v, want %v coded %v", qp, res, got, gotNZ, want, wantNZ)
		}
	})
}
