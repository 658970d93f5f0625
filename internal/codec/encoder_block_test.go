package codec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The encoder's block — quantizeResidual, emitBlock, writeUE — against
// the array forms in transform_test.go.

// sumAbsOf is Σ|res|, what extractIntra and extractInter hand the
// quantizer.
func sumAbsOf(res *[64]int32) (sum int64) {
	for _, v := range res {
		sum += abs64(v)
	}
	return sum
}

// levelPoison fills the level arrays handed to the mask forms: an entry
// off the mask is neither written nor read, so it must come back as is.
const levelPoison = 0x5A5A5A5A

// maskQuantize spells quantizeResidual's result as the array form did: a
// level array that is zero off the mask, and the coded flag.
func maskQuantize(res *[64]int32, qp int, levels *[64]int32) bool {
	r := *res
	var at [64]int32
	mask := quantizeResidual(&r, sumAbsOf(res), tablesFor(qp), &at)
	for i := range levels {
		levels[i] = 0
		if mask>>uint(i)&1 != 0 {
			levels[i] = at[i]
		}
	}
	return mask != 0
}

// withTables runs f with the tables t installed at QP 63 — no encoder
// reaches it — so that the array form, which looks its tables up by QP,
// can be driven by tables no QP has.
func withTables(t qpTables, f func(qp int)) {
	saved := qpTab[qpFieldMax]
	qpTab[qpFieldMax] = t
	defer func() { qpTab[qpFieldMax] = saved }()
	f(qpFieldMax)
}

// basisBlock is amp·Aᵤ[x]·Aᵥ[y] rounded to residual samples, A the
// transform's rows scaled to unit length: a block whose energy sits at
// coefficient (v, u), of about amp in orthonormal units.
func basisBlock(u, v int, amp float64) (b [64]int32) {
	var norm [8]float64
	for k, row := range basis8 {
		for _, a := range row {
			norm[k] += float64(a * a)
		}
		norm[k] = math.Sqrt(norm[k])
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			s := amp * float64(basis8[u][x]) / norm[u] * float64(basis8[v][y]) / norm[v]
			b[y*8+x] = int32(max(-255, min(255, math.Round(s))))
		}
	}
	return b
}

// stepOf is qp's quantizer step in orthonormal units: the DC's
// dequantization over the DC basis product 8, in 1/256ths.
func stepOf(qp int) float64 { return float64(tablesFor(qp).Deq[0]) / 32 }

// encoderTestResiduals yields the residual blocks the mask path's
// shortcuts key on, at one QP: all-zero, blocks around the zero
// thresholds, DC-only, a single AC at each of the 63 positions (a few
// steps strong, and saturated), energy confined to the 4×4 low-frequency
// corner, dense ±255, and seeded random blocks.
func encoderTestResiduals(qp int, rng *rand.Rand) [][64]int32 {
	blocks := [][64]int32{{}}
	for _, seed := range zeroEdgeSeeds(qp) {
		var b [64]int32
		for i, v := range seed {
			b[i] = int32(int8(v))
		}
		blocks = append(blocks, b)
	}
	for _, v := range []int32{1, -1, 2, 3, 5, 17, -40, 127, -128, 255, -255} {
		var flat [64]int32
		for i := range flat {
			flat[i] = v
		}
		blocks = append(blocks, flat)
	}
	step := stepOf(qp)
	for z := 1; z < 64; z++ {
		blocks = append(blocks, basisBlock(z&7, z>>3, 3.4*step), basisBlock(z&7, z>>3, -2000))
	}
	for n := 0; n < 4; n++ {
		var corner, dense, noise [64]int32
		for v := 0; v < 4; v++ {
			for u := 0; u < 4; u++ {
				wave := basisBlock(u, v, (rng.Float64()-0.5)*12*step)
				for i := range corner {
					corner[i] = max(-255, min(255, corner[i]+wave[i]))
				}
			}
		}
		for i := range dense {
			dense[i] = 255 - 510*int32(rng.Intn(2))
			noise[i] = int32(rng.Intn(511)) - 255
		}
		blocks = append(blocks, corner, dense, noise)
	}
	return blocks
}

// checkBlock holds quantizeResidual at qp to quantizeBlock →
// dequantizeBlock on one residual: the mask is the reference's nonzero
// levels, levels are written there and nowhere else, coded is the
// reference's flag, the residual left behind is the reference's
// reconstruction (or untouched when uncoded), and the planes both store
// paths write are equal. It returns the reference's levels and flag.
func checkBlock(t *testing.T, what string, res *[64]int32, qp int, planes *blockPlanes) (want [64]int32, wantCoded bool) {
	t.Helper()
	ref := *res
	wantCoded = quantizeBlock(&ref, qp, &want)
	var wantRes [64]int32
	if wantCoded {
		dequantizeBlock(&want, qp, &wantRes)
	}

	got := *res
	var levels [64]int32
	for i := range levels {
		levels[i] = levelPoison
	}
	mask := quantizeResidual(&got, sumAbsOf(res), tablesFor(qp), &levels)

	for i, l := range want {
		switch bit := mask>>uint(i)&1 != 0; {
		case bit != (l != 0):
			t.Fatalf("%s: mask bit %d is %v, the reference level %d (mask %#x)", what, i, bit, l, mask)
		case bit && levels[i] != l:
			t.Fatalf("%s: level %d = %d, want %d", what, i, levels[i], l)
		case !bit && levels[i] != levelPoison:
			t.Fatalf("%s: level %d written (%d) off the mask %#x", what, i, levels[i], mask)
		}
	}
	if (mask != 0) != wantCoded {
		t.Fatalf("%s: coded %v, want %v", what, mask != 0, wantCoded)
	}
	if wantCoded && got != wantRes {
		t.Fatalf("%s: reconstructed residual %v, want %v", what, got, wantRes)
	}
	if !wantCoded && got != *res {
		t.Fatalf("%s: an uncoded block's residual was modified", what)
	}
	planes.check(t, what, &want, wantCoded, &got, qp)
	return want, wantCoded
}

// blockPlanes is a reference plane and two copies of a current plane for
// the reference's and the mask path's stores.
type blockPlanes struct{ ref, a, b *plane }

func newBlockPlanes(rng *rand.Rand) *blockPlanes {
	return &blockPlanes{ref: randomPlane(32, 32, rng), a: randomPlane(32, 32, rng), b: newPlane(32, 32, 16)}
}

// check stores the block through reconstructInter/reconstructIntra (the
// deleted wrappers, from the reference levels) and through storeInter/
// storeIntra (from the residual quantizeResidual left), with an interior
// and an edge-crossing prediction, and wants equal plane bytes.
func (p *blockPlanes) check(t *testing.T, what string, levels *[64]int32, coded bool, res *[64]int32, qp int) {
	t.Helper()
	copy(p.b.pix, p.a.pix)
	for _, at := range [][4]int{{8, 16, 3, -2}, {0, 0, -5, -3}, {24, 24, 7, 9}} {
		reconstructInter(p.a, p.ref, at[0], at[1], at[2], at[3], levels, qp, coded)
		storeInter(p.b, p.ref, at[0], at[1], at[2], at[3], res, coded)
	}
	reconstructIntra(p.a, 16, 0, levels, qp, coded)
	storeIntra(p.b, 16, 0, res, coded)
	if !bytes.Equal(p.a.pix, p.b.pix) {
		t.Fatalf("%s: reconstructed plane bytes diverge from the reference", what)
	}
}

// TestQuantizeMaskMatchesReference holds the encoder's block to the array
// forms at every encoder QP over encoderTestResiduals, and — with tables
// made for the purpose — with one coefficient on a decision boundary,
// |Y|·Quant + Round a multiple of 2^Shift, and two either side of it. There
// the level must also be the one the boundary defines.
func TestQuantizeMaskMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	planes := newBlockPlanes(rng)
	blocks, coded := 0, 0
	for qp := qpMin; qp <= qpMax; qp++ {
		for bi, blk := range encoderTestResiduals(qp, rng) {
			if _, c := checkBlock(t, fmt.Sprintf("qp %d block %d", qp, bi), &blk, qp, planes); c {
				coded++
			}
			blocks++
		}
	}
	if coded == 0 || coded == blocks {
		t.Fatalf("%d of %d blocks coded: the corpus misses one side", coded, blocks)
	}

	var sparse [64]int32
	for _, i := range []int{3, 17, 18, 40, 62} {
		sparse[i] = int32(rng.Intn(301)) - 150
	}
	var flat [64]int32
	for i := range flat {
		flat[i] = 37
	}
	boundaries := 0
	for pi, pat := range [][64]int32{{0: 100}, {27: -255}, basisBlock(1, 0, 60), basisBlock(3, 5, -90), sparse, flat} {
		var coefs [64]int32
		fdct8Generic(&pat, &coefs)
		// Targets: the DC, the strongest AC and the weakest nonzero AC.
		targets := []int{0}
		strong, weak := 0, 0
		for z := 1; z < 64; z++ {
			a := max(coefs[z], -coefs[z])
			if strong == 0 || a > max(coefs[strong], -coefs[strong]) {
				strong = z
			}
			if a > 0 && (weak == 0 || a < max(coefs[weak], -coefs[weak])) {
				weak = z
			}
		}
		targets = append(targets, strong, weak)
		for _, z := range targets {
			a := int64(max(coefs[z], -coefs[z]))
			if a == 0 {
				continue
			}
			tab := *tablesFor(24)
			for _, m := range []int64{1, 2, 7} {
				for d := int64(-2); d <= 2; d++ {
					round := m<<tab.Shift - a*int64(tab.Quant[z]) + d
					if round < 0 {
						continue
					}
					tab.Round[z] = int32(round)
					wantLevel := m
					if d < 0 {
						wantLevel = m - 1
					}
					withTables(tab, func(qp int) {
						want, _ := checkBlock(t, fmt.Sprintf("pattern %d position %d level %d%+d", pi, z, m, d), &pat, qp, planes)
						if l := int64(want[unzigzag[z]]); max(l, -l) != wantLevel {
							t.Fatalf("pattern %d position %d: level %d, %+d from the boundary to %d", pi, z, l, d, m)
						}
					})
					boundaries++
				}
			}
		}
	}
	t.Logf("%d blocks over QP %d–%d (%d coded), %d boundary tables", blocks, qpMin, qpMax, coded, boundaries)
}

// TestEmitBlockMatchesReference holds the mask-driven entropy coder to
// the two-scan form bit for bit and at every byte phase: over the
// quantized corpus at every encoder QP, and over random masks with random
// levels of every magnitude writeSE has a code for. Off the mask the new
// form is handed poison, which it must not read.
func TestEmitBlockMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	n := 0
	check := func(what string, levels *[64]int32) {
		t.Helper()
		var mask uint64
		poisoned := *levels
		for i, l := range levels {
			if l != 0 {
				mask |= 1 << uint(i)
			} else {
				poisoned[i] = levelPoison
			}
		}
		want, got := &bitWriter{}, &bitWriter{}
		want.writeBits(0x55, uint(n%8))
		got.writeBits(0x55, uint(n%8))
		n++
		emitBlockTwoScans(want, levels, mask != 0)
		emitBlock(got, &poisoned, mask)
		if got.bitLen() != want.bitLen() || !bytes.Equal(got.bytes(), want.bytes()) {
			t.Fatalf("%s (mask %#x): %d bits %x, want %d bits %x", what, mask, got.bitLen(), got.bytes(), want.bitLen(), want.bytes())
		}
	}
	for qp := qpMin; qp <= qpMax; qp++ {
		for bi, blk := range encoderTestResiduals(qp, rng) {
			var levels [64]int32
			quantizeBlock(&blk, qp, &levels)
			check(fmt.Sprintf("qp %d block %d", qp, bi), &levels)
		}
	}
	for trial := 0; trial < 4000; trial++ {
		var levels [64]int32
		mask := rng.Uint64()
		for k := trial % 7; k > 0; k-- {
			mask &= rng.Uint64() // thin it out: long runs, few pairs
		}
		switch trial % 11 {
		case 0:
			mask = 1
		case 1:
			mask = 1 << 63
		case 2:
			mask |= 1 | 1<<63
		case 3:
			mask &^= 1 // AC levels under a zero DC
		}
		for i := range levels {
			if mask>>uint(i)&1 != 0 {
				for levels[i] == 0 || levels[i] == math.MinInt32 {
					levels[i] = int32(rng.Uint32()) >> uint(rng.Intn(32))
				}
			}
		}
		check(fmt.Sprintf("random trial %d", trial), &levels)
	}
}

// ueProbeValues are the neighbours of every 2ᵏ−1 — where the code grows
// by two bits, and at k = 16 changes spelling — up to math.MaxUint32.
func ueProbeValues() (vs []uint32) {
	for k := 0; k <= 32; k++ {
		for d := int64(-3); d <= 3; d++ {
			if v := int64(1)<<uint(k) - 1 + d; v >= 0 && v <= math.MaxUint32 {
				vs = append(vs, uint32(v))
			}
		}
	}
	return vs
}

// TestWriteUEOneWrite holds writeUE to the two-write spelling it had:
// every v < 2¹⁷ (both spellings, and the switch between them at n = 16)
// and ueProbeValues, each at every starting bit phase.
func TestWriteUEOneWrite(t *testing.T) {
	got, want := &bitWriter{}, &bitWriter{}
	check := func(v uint32) {
		for phase := uint(0); phase < 8; phase++ {
			for _, w := range []*bitWriter{got, want} {
				w.buf, w.cur, w.nCur = w.buf[:0], 0, 0
				w.writeBits(0xFF, phase)
			}
			got.writeUE(v)
			writeUETwoWrites(want, v)
			if got.bitLen() != want.bitLen() || !bytes.Equal(got.bytes(), want.bytes()) {
				t.Fatalf("writeUE(%d) at phase %d: %x, two writes give %x", v, phase, got.bytes(), want.bytes())
			}
		}
	}
	for v := uint32(0); v < 1<<17; v++ {
		check(v)
	}
	for _, v := range ueProbeValues() {
		check(v)
	}
}

// TestExtractReturnsResidualSum: the Σ|res| the extraction hands the
// quantizer — taken as a SWAR SAD on the interior path — is the sum of
// the residual it wrote, and that residual is the per-sample difference,
// for predictions inside the plane, across each edge and off it, and for
// intra blocks of saturated samples.
func TestExtractReturnsResidualSum(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const w, h = 48, 32
	cur, ref := randomPlane(w, h, rng), randomPlane(w, h, rng)
	for i := 0; i < 64; i++ { // saturated corners: |res| up to 255 in every lane
		cur.pix[(i/8)*w+i%8], ref.pix[(i/8)*w+i%8] = 255, 0
		cur.pix[(i/8+8)*w+i%8], ref.pix[(i/8+8)*w+i%8] = 0, 255
	}
	for _, pos := range [][2]int{{0, 0}, {0, 8}, {w - 8, 0}, {0, h - 8}, {w - 8, h - 8}, {16, 8}} {
		for mvy := -9; mvy <= 9; mvy++ {
			for mvx := -9; mvx <= 9; mvx++ {
				var res, want [64]int32
				sum := extractInter(cur, ref, pos[0], pos[1], mvx, mvy, &res)
				for i := range want {
					want[i] = int32(cur.pix[(pos[1]+i/8)*w+pos[0]+i%8]) - int32(ref.at(pos[0]+i%8+mvx, pos[1]+i/8+mvy))
				}
				if res != want || sum != sumAbsOf(&want) {
					t.Fatalf("inter at %v mv (%d,%d): sum %d, residual sums to %d (residual equal: %v)", pos, mvx, mvy, sum, sumAbsOf(&want), res == want)
				}
			}
		}
		var res, want [64]int32
		sum := extractIntra(cur, pos[0], pos[1], &res)
		for i := range want {
			want[i] = int32(cur.pix[(pos[1]+i/8)*w+pos[0]+i%8]) - 128
		}
		if res != want || sum != sumAbsOf(&want) {
			t.Fatalf("intra at %v: sum %d, residual sums to %d (residual equal: %v)", pos, sum, sumAbsOf(&want), res == want)
		}
	}
}
