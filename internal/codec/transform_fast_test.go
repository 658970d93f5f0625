package codec

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/video"
)

// Reference formulations, kept verbatim from the pre-butterfly codec:
// the fast paths must reproduce these bit for bit on every input.

func refQuantizeBlock(res *[64]int32, qp int, levels *[64]int32) bool {
	var coefs [64]float64
	fdct8(res, &coefs)
	step := qStep(qp)
	nz := false
	for i := 0; i < 64; i++ {
		c := coefs[zigzag[i]]
		var l int32
		if i == 0 {
			l = int32(math.Round(c / step))
		} else {
			if c >= 0 {
				l = int32((c + step/3) / step)
			} else {
				l = -int32((-c + step/3) / step)
			}
		}
		levels[i] = l
		if l != 0 {
			nz = true
		}
	}
	return nz
}

func refDequantizeBlock(levels *[64]int32, qp int, res *[64]int32) {
	var coefs [64]float64
	step := qStep(qp)
	for i := 0; i < 64; i++ {
		coefs[zigzag[i]] = float64(levels[i]) * step
	}
	idct8(&coefs, res)
}

// The encoder's block path as it stood before quantizeResidual and the
// nonzero mask, verbatim apart from the names of the three functions whose
// successors kept theirs (emitBlock, fdct1dFast/fdct8Fast, writeUE) and of
// the calls between them: the
// quantizer filling a 64-entry level array (Σ|res| loop, block-wide
// post-transform certificate, math.Floor per coefficient), the scan that
// dequantized it, the two reconstruct wrappers, the two-scan entropy
// coder, the gather-copy forward butterfly and the two-write Exp-Golomb
// code. quantizeResidual, emitBlock, fdct8Fast and writeUE must reproduce
// them on every input.

// quantizeBlock transforms and quantizes one residual block. Frequency
// position 0 (DC) uses plain rounding; AC positions use a dead-zone to
// suppress low-energy coefficients. The quantized levels are written in
// zigzag order. Returns true if any level is nonzero.
//
// The transform runs on the butterfly fast path; every level whose fast
// coefficient lands inside the certified-rounding guard band is redone
// with the exact reference formulation, keeping the output bit-identical
// to a fully exact encode.
//
// Most residual blocks quantize to all zeros, and two certificates settle
// those without quantizing a single coefficient (DESIGN.md §5.9). Before
// the transform: every basis product is at most ½·½, so |coef| ≤ ¼·Σ|res|
// (and |DC| = ⅛·|Σres| is at most half of that — ZeroAC/2 < ZeroDC, so
// the AC test covers it). After it: the largest fast coefficient plus the
// guard band bounds the exact ones.
func quantizeBlock(res *[64]int32, qp int, levels *[64]int32) bool {
	t := tablesFor(qp)
	var sumAbs int64
	for i := 0; i < 64; i++ {
		v := res[i]
		if v < 0 {
			v = -v
		}
		sumAbs += int64(v)
	}
	if float64(sumAbs)/4 < t.ZeroAC {
		*levels = [64]int32{}
		return false
	}
	var coefs [64]float64
	refFdct8Fast(res, &coefs)

	// Guard band: |fast − exact| is bounded by the summation-order error
	// of two butterfly passes, ≤ ~2⁻⁴⁸·Σ|res|; certEps leaves two orders
	// of magnitude of margin on top of that.
	delta := float64(sumAbs)*certEps + certFloor

	maxAC := 0.0
	for _, c := range coefs[1:] {
		if a := math.Abs(c); a > maxAC {
			maxAC = a
		}
	}
	if math.Abs(coefs[0])+delta < t.ZeroDC && maxAC+delta < t.ZeroAC {
		*levels = [64]int32{}
		return false
	}

	step, bias := t.Step, t.Bias
	nz := false
	for i := 0; i < 64; i++ {
		c := coefs[zigzag[i]]
		var l int32
		if i == 0 {
			u := c / step
			// Round boundaries sit at half-integers; the division adds at
			// most a couple of ulps on top of delta.
			du := delta/step + math.Abs(u)*1e-14 + certFloor
			a := math.Abs(u)
			if math.Abs(a-math.Floor(a)-0.5) < du {
				transformFallbacks.Add(1)
				l = int32(math.Round(fdctCoefExact(res, zigzag[i]) / step))
			} else {
				l = int32(math.Round(u))
			}
		} else {
			// Dead-zone quantizer: bias magnitudes toward zero. Truncation
			// boundaries sit at integers of (|c|+bias)/step; the sign branch
			// is boundary-free because both branches yield 0 for |c| < step.
			a := math.Abs(c)
			u := (a + bias) / step
			du := delta/step + u*1e-14 + certFloor
			frac := u - math.Floor(u)
			if frac < du || frac > 1-du {
				transformFallbacks.Add(1)
				ce := fdctCoefExact(res, zigzag[i])
				if ce >= 0 {
					l = int32((ce + bias) / step)
				} else {
					l = -int32((-ce + bias) / step)
				}
			} else if c >= 0 {
				l = int32(u)
			} else {
				l = -int32(u)
			}
		}
		levels[i] = l
		if l != 0 {
			nz = true
		}
	}
	return nz
}

// dequantizeBlock inverts quantizeBlock: reconstructs coefficients from
// zigzag-ordered levels and applies the inverse transform. The scan
// also collects the nonzero row/column masks the butterfly inverse uses
// to skip all-zero groups, and the |level| sum that scales its
// certified-rounding guard band.
func dequantizeBlock(levels *[64]int32, qp int, res *[64]int32) {
	t := tablesFor(qp)
	var coefs [64]float64
	var rowMask, colMask uint8
	var sumAbs int64
	for i := 0; i < 64; i++ {
		l := levels[i]
		if l == 0 {
			continue
		}
		z := zigzag[i]
		coefs[z] = float64(l) * t.Deq[i]
		rowMask |= 1 << uint(z>>3)
		colMask |= 1 << uint(z&7)
		sumAbs += abs64(l)
	}
	if rowMask == 0 {
		*res = [64]int32{}
		return
	}
	delta := float64(sumAbs)*t.Step*certEps + certFloor
	idct8Fast(&coefs, res, rowMask, colMask, delta)
}

// reconstructIntra writes the dequantized intra block back into the
// plane so it can serve as reference data.
func reconstructIntra(p *plane, x0, y0 int, levels *[64]int32, qp int, coded bool) {
	if !coded {
		storeIntra(p, x0, y0, nil, false)
		return
	}
	var res [64]int32
	dequantizeBlock(levels, qp, &res)
	storeIntra(p, x0, y0, &res, true)
}

// reconstructInter writes prediction + dequantized residual back into
// the current plane.
func reconstructInter(cur, ref *plane, x0, y0, mvx, mvy int, levels *[64]int32, qp int, coded bool) {
	if !coded {
		storeInter(cur, ref, x0, y0, mvx, mvy, nil, false)
		return
	}
	var res [64]int32
	dequantizeBlock(levels, qp, &res)
	storeInter(cur, ref, x0, y0, mvx, mvy, &res, true)
}

// emitBlockTwoScans entropy-codes one quantized block: a coded flag, then the
// DC level (SE), the count of nonzero AC levels (UE), and for each a
// (zero-run, level) pair. Uncoded blocks (all levels zero) emit only
// the flag.
func emitBlockTwoScans(w *bitWriter, levels *[64]int32, coded bool) {
	if !coded {
		w.writeBits(0, 1)
		return
	}
	w.writeBits(1, 1)
	w.writeSE(levels[0])
	nAC := 0
	for i := 1; i < 64; i++ {
		if levels[i] != 0 {
			nAC++
		}
	}
	w.writeUE(uint32(nAC))
	run := 0
	for i := 1; i < 64; i++ {
		if levels[i] == 0 {
			run++
			continue
		}
		w.writeUE(uint32(run))
		w.writeSE(levels[i])
		run = 0
	}
}

// refFdct1dFast computes one forward 1-D pass out[k] = Σₙ in[n]·B[k][n]
// via the even/odd butterfly.
func refFdct1dFast(in, out *[8]float64) {
	s0, s1, s2, s3 := in[0]+in[7], in[1]+in[6], in[2]+in[5], in[3]+in[4]
	d0, d1, d2, d3 := in[0]-in[7], in[1]-in[6], in[2]-in[5], in[3]-in[4]
	for u := 0; u < 4; u++ {
		out[2*u] = s0*fevenB[u][0] + s1*fevenB[u][1] + s2*fevenB[u][2] + s3*fevenB[u][3]
		out[2*u+1] = d0*foddB[u][0] + d1*foddB[u][1] + d2*foddB[u][2] + d3*foddB[u][3]
	}
}

// refFdct8Fast computes the forward 2D DCT of src into dst with butterfly
// 1-D passes (rows, then columns), matching fdct8 up to summation-order
// rounding.
func refFdct8Fast(src *[64]int32, dst *[64]float64) {
	var tmp [64]float64
	var in, out [8]float64
	for y := 0; y < 8; y++ {
		for n := 0; n < 8; n++ {
			in[n] = float64(src[y*8+n])
		}
		refFdct1dFast(&in, &out)
		for k := 0; k < 8; k++ {
			tmp[y*8+k] = out[k]
		}
	}
	for x := 0; x < 8; x++ {
		for n := 0; n < 8; n++ {
			in[n] = tmp[n*8+x]
		}
		refFdct1dFast(&in, &out)
		for k := 0; k < 8; k++ {
			dst[k*8+x] = out[k]
		}
	}
}

// writeUETwoWrites writes v using unsigned Exp-Golomb coding: n leading zeros
// followed by the n+1 significant bits of v+1, where n = bitlen(v+1)-1.
// The whole code is at most 32 zeros plus 33 value bits.
func writeUETwoWrites(w *bitWriter, v uint32) {
	x := uint64(v) + 1
	n := uint(bits.Len64(x)) - 1
	if n > 0 {
		w.writeBits(0, n)
	}
	w.writeBits64(x, n+1)
}

// decodeBlock is the decoder's block parser as it stood before
// decodeResidual fused it with dequantization, verbatim: the syntax, its
// three errors and the bit positions they are raised at.
//
// decodeBlock reads one entropy-coded block into zigzag-ordered levels,
// reporting whether the block was coded. Uncoded blocks leave levels
// untouched — callers skip the transform entirely for them.
func decodeBlock(r *bitReader, levels *[64]int32) (bool, error) {
	coded, err := r.readBits(1)
	if err != nil {
		return false, err
	}
	if coded == 0 {
		return false, nil
	}
	*levels = [64]int32{}
	dc, err := r.readSE()
	if err != nil {
		return false, err
	}
	levels[0] = dc
	nAC, err := r.readUE()
	if err != nil {
		return false, err
	}
	if nAC > 63 {
		return false, fmt.Errorf("codec: invalid AC coefficient count %d", nAC)
	}
	pos := 1
	for i := uint32(0); i < nAC; i++ {
		run, err := r.readUE()
		if err != nil {
			return false, err
		}
		lvl, err := r.readSE()
		if err != nil {
			return false, err
		}
		pos += int(run)
		if pos >= 64 {
			return false, fmt.Errorf("codec: coefficient position %d out of range", pos)
		}
		if lvl == 0 {
			return false, fmt.Errorf("codec: zero level in run-level pair")
		}
		levels[pos] = lvl
		pos++
	}
	return true, nil
}

// transformTestQPs covers the quantizer extremes, the preset operating
// points, and the out-of-encoder wire range the decoder tolerates.
var transformTestQPs = []int{qpMin, 2, 7, 22, 24, 44, qpMax, 60, qpFieldMax}

// transformTestBlocks yields residual blocks spanning the codec's real
// input space plus adversarial shapes for the butterfly path: impulses
// (single-coefficient energy), constants at the sample extremes, a
// checkerboard (all energy in the highest frequency), and seeded random
// blocks at intra ([-128, 127]) and inter ([-255, 255]) ranges.
func transformTestBlocks() [][64]int32 {
	var blocks [][64]int32
	blocks = append(blocks, [64]int32{}) // all-zero
	for _, v := range []int32{1, -1, 127, -128, 255, -255} {
		var b [64]int32
		for i := range b {
			b[i] = v
		}
		blocks = append(blocks, b)
		var imp [64]int32
		imp[0] = v
		blocks = append(blocks, imp)
		imp = [64]int32{}
		imp[63] = v
		blocks = append(blocks, imp)
	}
	var checker [64]int32
	for i := range checker {
		if (i+i/8)%2 == 0 {
			checker[i] = 255
		} else {
			checker[i] = -255
		}
	}
	blocks = append(blocks, checker)
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 500; n++ {
		var intra, inter [64]int32
		for i := range intra {
			intra[i] = int32(rng.Intn(256)) - 128
			inter[i] = int32(rng.Intn(511)) - 255
		}
		blocks = append(blocks, intra, inter)
	}
	return blocks
}

// TestQuantizeBlockEquivalence pins the butterfly forward path: for
// every test block and QP, levels and the nz flag must match the
// reference formulation exactly.
func TestQuantizeBlockEquivalence(t *testing.T) {
	for bi, blk := range transformTestBlocks() {
		for _, qp := range transformTestQPs {
			if qp > qpMax {
				continue // encoder-side QP never exceeds qpMax
			}
			b := blk
			var got, want [64]int32
			gotNZ := maskQuantize(&b, qp, &got)
			wantNZ := refQuantizeBlock(&b, qp, &want)
			if got != want || gotNZ != wantNZ {
				t.Fatalf("block %d qp %d: fast quantize diverges from reference", bi, qp)
			}
		}
	}
}

// TestDequantizeBlockEquivalence pins the butterfly inverse path across
// the full wire QP range, feeding it the levels real encodes produce.
func TestDequantizeBlockEquivalence(t *testing.T) {
	for bi, blk := range transformTestBlocks() {
		for _, qp := range transformTestQPs {
			b := blk
			var levels [64]int32
			encQP := qp
			if encQP > qpMax {
				encQP = qpMax
			}
			quantizeBlock(&b, encQP, &levels)
			var got, want [64]int32
			dequantizeBlock(&levels, qp, &got)
			refDequantizeBlock(&levels, qp, &want)
			if got != want {
				t.Fatalf("block %d qp %d: fast dequantize diverges from reference", bi, qp)
			}
		}
	}
}

// TestButterfly1DMatchesBasis sanity-checks the butterfly 1-D passes
// against direct basis evaluation (within float tolerance — bit-level
// agreement is the certified-rounding layer's job, not the butterfly's).
func TestButterfly1DMatchesBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var in, fOut, iOut [8]float64
		var mask uint8
		for i := range in {
			in[i] = rng.Float64()*510 - 255
			if in[i] != 0 {
				mask |= 1 << uint(i)
			}
		}
		fOut[0], fOut[1], fOut[2], fOut[3], fOut[4], fOut[5], fOut[6], fOut[7] =
			fdct1dFast(in[0], in[1], in[2], in[3], in[4], in[5], in[6], in[7])
		var refOut [8]float64
		if refFdct1dFast(&in, &refOut); refOut != fOut {
			t.Fatalf("trial %d: register fdct1dFast %v, array form %v: the fast values must be bit-equal", trial, fOut, refOut)
		}
		iOut[0], iOut[1], iOut[2], iOut[3], iOut[4], iOut[5], iOut[6], iOut[7] =
			idct1dFast(in[0], in[1], in[2], in[3], in[4], in[5], in[6], in[7], mask)
		for k := 0; k < 8; k++ {
			var fs, is float64
			for n := 0; n < 8; n++ {
				fs += in[n] * dctBasis[k][n]
				is += in[n] * dctBasis[n][k]
			}
			if math.Abs(fs-fOut[k]) > 1e-9 || math.Abs(is-iOut[k]) > 1e-9 {
				t.Fatalf("trial %d k=%d: butterfly 1-D diverges beyond tolerance", trial, k)
			}
		}
	}
}

// TestTransformFallbacksRare asserts the certified-rounding guard band
// is doing its job quantitatively: across the whole equivalence corpus
// the fast path must decide nearly every rounding itself (a fallback
// rate above a fraction of a percent means the band is far too wide and
// the "fast" path is quietly running the exact formulation).
func TestTransformFallbacksRare(t *testing.T) {
	before := TransformFallbacks()
	decisions := int64(0)
	for _, blk := range transformTestBlocks() {
		for _, qp := range transformTestQPs {
			if qp > qpMax {
				continue
			}
			b := blk
			var levels [64]int32
			quantizeResidual(&b, sumAbsOf(&b), tablesFor(qp), &levels)
			decisions += 2 * 64
		}
	}
	fallbacks := TransformFallbacks() - before
	if limit := decisions / 200; fallbacks > limit {
		t.Fatalf("%d certified-rounding fallbacks across %d decisions (limit %d): guard band too wide",
			fallbacks, decisions, limit)
	}
}

// The decoder's residual path as it stood before decodeResidual and the
// row-at-a-time rounding, verbatim apart from names and from counting
// fallbacks into the caller's counter: the gather-copy butterfly, the
// per-sample Abs/Floor/Abs/Round certificate, the 64-entry level scan.

func refIdct1dFast(in, out *[8]float64, mask uint8) {
	var e, o [4]float64
	switch {
	case mask&0x55 == 0:
		// Even half entirely zero: e stays 0.
	case mask&0x54 == 0:
		// DC only: B[0][n] is the constant dc0.
		v := in[0] * dc0
		e[0], e[1], e[2], e[3] = v, v, v, v
	default:
		for n := 0; n < 4; n++ {
			e[n] = in[0]*ievenB[n][0] + in[2]*ievenB[n][1] + in[4]*ievenB[n][2] + in[6]*ievenB[n][3]
		}
	}
	if mask&0xAA != 0 {
		for n := 0; n < 4; n++ {
			o[n] = in[1]*ioddB[n][0] + in[3]*ioddB[n][1] + in[5]*ioddB[n][2] + in[7]*ioddB[n][3]
		}
	}
	for n := 0; n < 4; n++ {
		out[n] = e[n] + o[n]
		out[7-n] = e[n] - o[n]
	}
}

func refIdct8Fast(src *[64]float64, dst *[64]int32, rowMask, colMask uint8, delta float64, fallbacks *int64) {
	var tmp [64]float64
	var in, out [8]float64
	for x := 0; x < 8; x++ {
		if colMask&(1<<uint(x)) == 0 {
			continue // whole coefficient column zero: tmp column stays zero
		}
		for k := 0; k < 8; k++ {
			in[k] = src[k*8+x]
		}
		refIdct1dFast(&in, &out, rowMask)
		for n := 0; n < 8; n++ {
			tmp[n*8+x] = out[n]
		}
	}
	for y := 0; y < 8; y++ {
		for k := 0; k < 8; k++ {
			in[k] = tmp[y*8+k]
		}
		refIdct1dFast(&in, &out, colMask)
		for n := 0; n < 8; n++ {
			s := out[n]
			a := math.Abs(s)
			if math.Abs(a-math.Floor(a)-0.5) >= delta {
				dst[y*8+n] = int32(math.Round(s))
			} else {
				*fallbacks++
				dst[y*8+n] = int32(math.Round(idctSampleExact(src, y, n)))
			}
		}
	}
}

func refDequantizeBlockFast(levels *[64]int32, qp int, res *[64]int32, fallbacks *int64) {
	t := tablesFor(qp)
	var coefs [64]float64
	var rowMask, colMask uint8
	var sumAbs int64
	for i := 0; i < 64; i++ {
		l := levels[i]
		if l == 0 {
			continue
		}
		z := zigzag[i]
		coefs[z] = float64(l) * t.Deq[i]
		rowMask |= 1 << uint(z>>3)
		colMask |= 1 << uint(z&7)
		if l < 0 {
			sumAbs -= int64(l)
		} else {
			sumAbs += int64(l)
		}
	}
	if rowMask == 0 {
		*res = [64]int32{}
		return
	}
	delta := float64(sumAbs)*t.Step*certEps + certFloor
	refIdct8Fast(&coefs, res, rowMask, colMask, delta, fallbacks)
}

// refDecoder is Decoder.Decode for untiled streams as it stood before
// decodeResidual: decodeBlock into a level array, then the exact
// float64 inverse (refDequantizeBlock). Its errors are the reference
// parser's errors and its frames the codec's definition of a decode.
type refDecoder struct {
	w, h             int
	refY, refU, refV *plane
	curY, curU, curV *plane
	haveRef          bool
	nonZeroMVs       int // coded macroblocks with a non-zero vector, all frames
	// parseOnly walks the syntax without reconstructing: enough for the
	// verdict on a unit that cannot parse, at a fraction of the exact
	// inverse transform's cost. Decode then returns (nil, nil) on success
	// and leaves the reference planes alone.
	parseOnly bool
}

func newRefDecoder(cfg Config) *refDecoder {
	c := cfg.withDefaults()
	cw, ch := (c.Width+1)/2, (c.Height+1)/2
	return &refDecoder{
		w: c.Width, h: c.Height,
		refY: newPlane(c.Width, c.Height, 16), refU: newPlane(cw, ch, 8), refV: newPlane(cw, ch, 8),
		curY: newPlane(c.Width, c.Height, 16), curU: newPlane(cw, ch, 8), curV: newPlane(cw, ch, 8),
	}
}

func (d *refDecoder) Decode(data []byte) (*video.Frame, error) {
	r := bitReader{buf: data}
	isKey, qp, err := readFrameHeader(&r)
	if err != nil {
		return nil, err
	}
	if !isKey && !d.haveRef {
		return nil, fmt.Errorf("codec: P-frame received before any keyframe")
	}
	mbW := d.curY.w / 16
	mbH := d.curY.h / 16
	for my := 0; my < mbH; my++ {
		pmvx, pmvy := 0, 0
		for mx := 0; mx < mbW; mx++ {
			if isKey {
				if err := d.decodeIntraMB(&r, mx, my, qp); err != nil {
					return nil, err
				}
			} else {
				pmvx, pmvy, err = d.decodeInterMB(&r, mx, my, qp, pmvx, pmvy)
				if err != nil {
					return nil, err
				}
			}
		}
	}
	if d.parseOnly {
		return nil, nil
	}
	f := video.NewFrame(d.w, d.h)
	d.curY.storeTo(f.Y, f.W, f.H)
	d.curU.storeTo(f.U, f.ChromaW(), f.ChromaH())
	d.curV.storeTo(f.V, f.ChromaW(), f.ChromaH())
	d.refY, d.curY = d.curY, d.refY
	d.refU, d.curU = d.curU, d.refU
	d.refV, d.curV = d.curV, d.refV
	d.haveRef = true
	return f, nil
}

func (d *refDecoder) decodeIntraMB(r *bitReader, mx, my, qp int) error {
	var levels, res [64]int32
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			coded, err := decodeBlock(r, &levels)
			if err != nil {
				return err
			}
			if d.parseOnly {
				continue
			}
			if coded {
				refDequantizeBlock(&levels, qp, &res)
			}
			storeIntra(d.curY, mx*16+bx*8, my*16+by*8, &res, coded)
		}
	}
	for _, p := range [2]*plane{d.curU, d.curV} {
		coded, err := decodeBlock(r, &levels)
		if err != nil {
			return err
		}
		if d.parseOnly {
			continue
		}
		if coded {
			refDequantizeBlock(&levels, qp, &res)
		}
		storeIntra(p, mx*8, my*8, &res, coded)
	}
	return nil
}

func (d *refDecoder) decodeInterMB(r *bitReader, mx, my, qp, pmvx, pmvy int) (int, int, error) {
	skip, err := r.readBits(1)
	if err != nil {
		return 0, 0, err
	}
	cx, cy := mx*16, my*16
	if skip == 1 {
		if !d.parseOnly {
			copyMB(d.curY, d.refY, cx, cy, 16, 0, 0)
			copyMB(d.curU, d.refU, mx*8, my*8, 8, 0, 0)
			copyMB(d.curV, d.refV, mx*8, my*8, 8, 0, 0)
		}
		return 0, 0, nil
	}
	dmvx, err := r.readSE()
	if err != nil {
		return 0, 0, err
	}
	dmvy, err := r.readSE()
	if err != nil {
		return 0, 0, err
	}
	mvx, mvy := pmvx+int(dmvx), pmvy+int(dmvy)
	if mvx != 0 || mvy != 0 {
		d.nonZeroMVs++
	}
	var levels, res [64]int32
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			coded, err := decodeBlock(r, &levels)
			if err != nil {
				return 0, 0, err
			}
			if d.parseOnly {
				continue
			}
			if coded {
				refDequantizeBlock(&levels, qp, &res)
			}
			storeInter(d.curY, d.refY, cx+bx*8, cy+by*8, mvx, mvy, &res, coded)
		}
	}
	cmvx, cmvy := mvx/2, mvy/2
	for _, pp := range [2]struct{ cur, ref *plane }{{d.curU, d.refU}, {d.curV, d.refV}} {
		coded, err := decodeBlock(r, &levels)
		if err != nil {
			return 0, 0, err
		}
		if d.parseOnly {
			continue
		}
		if coded {
			refDequantizeBlock(&levels, qp, &res)
		}
		storeInter(pp.cur, pp.ref, mx*8, my*8, cmvx, cmvy, &res, coded)
	}
	return mvx, mvy, nil
}

// writeLevels entropy-codes a coded block like emitBlock, and also
// writes the one level emitBlock cannot: math.MinInt32 has no writeSE
// code, but the reader produces it from 32 zeros, a one and 32 zeros.
func writeLevels(w *bitWriter, levels *[64]int32) {
	se := func(v int32) {
		if v == math.MinInt32 {
			w.writeBits(0, 32)
			w.writeBits(1, 1)
			w.writeBits(0, 32)
			return
		}
		w.writeSE(v)
	}
	w.writeBits(1, 1)
	se(levels[0])
	nAC := 0
	for _, l := range levels[1:] {
		if l != 0 {
			nAC++
		}
	}
	w.writeUE(uint32(nAC))
	run := 0
	for _, l := range levels[1:] {
		if l == 0 {
			run++
			continue
		}
		w.writeUE(uint32(run))
		se(l)
		run = 0
	}
}

// readerAt is a bit reader's position: two readers over one buffer that
// agree on it have consumed the same bits.
func readerAt(r *bitReader) [3]uint64 { return [3]uint64{uint64(r.pos), r.acc, uint64(r.nAcc)} }

// residualTestBlocks yields zigzag-ordered level blocks for the fused
// residual decode: the shapes its shortcuts key on (DC-only, a single AC
// at every position, energy confined to the 4×4 low-frequency corner,
// dense), the level extremes the wire can carry, a coded block with no
// level at all, and seeded random blocks from sparse to full.
func residualTestBlocks(rng *rand.Rand) [][64]int32 {
	var blocks [][64]int32
	blocks = append(blocks, [64]int32{}) // coded, yet every level zero
	for _, dc := range []int32{1, -1, 2, -2, 3, 4, 5, -6, 7, 12, 20, -36, 100, -128, 1000, math.MaxInt32, math.MinInt32, math.MinInt32 + 1} {
		blocks = append(blocks, [64]int32{0: dc})
	}
	for pos := 1; pos < 64; pos++ {
		for _, l := range []int32{1, -1, 37} {
			var b [64]int32
			b[pos] = l
			blocks = append(blocks, b)
			b[0] = -l * 3
			blocks = append(blocks, b)
		}
	}
	for n := 0; n < 8; n++ {
		var corner, dense, extreme [64]int32
		for i := range dense {
			if z := zigzag[i]; z>>3 < 4 && z&7 < 4 {
				corner[i] = int32(rng.Intn(61)) - 30
			}
			dense[i] = int32(rng.Intn(4001)) - 2000
			if dense[i] == 0 {
				dense[i] = 1
			}
			switch rng.Intn(4) {
			case 0:
				extreme[i] = math.MaxInt32
			case 1:
				extreme[i] = math.MinInt32
			}
		}
		blocks = append(blocks, corner, dense, extreme)
	}
	for n := 0; n < 24; n++ {
		var b [64]int32
		for i := range b {
			if rng.Intn(64) <= n*3 {
				b[i] = int32(rng.Intn(1<<uint(1+n%12))) - 1<<uint(n%12)
			}
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// TestDecodeResidualMatchesReference holds the fused residual decode to
// the path it replaced, at every QP the wire can carry: the same coded
// flag, the reader left at the same bit, the samples of decodeBlock →
// dequantizeBlock and of decodeBlock → exact idct8 alike, and no more
// certified-rounding fallbacks than the per-sample certificate took.
func TestDecodeResidualMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	blocks := residualTestBlocks(rng)
	var fused, ref int64
	for qp := 0; qp <= qpFieldMax; qp++ {
		for bi := range blocks {
			w := &bitWriter{}
			writeLevels(w, &blocks[bi])
			w.writeBits(0x2A5, 10) // what follows the block must stay unread
			data := w.bytes()

			rr := bitReader{buf: data}
			var levels, viaFast, exact, old [64]int32
			coded, err := decodeBlock(&rr, &levels)
			if err != nil || !coded || levels != blocks[bi] {
				t.Fatalf("block %d: reference parse = %v, %v, levels match %v", bi, coded, err, levels == blocks[bi])
			}
			dequantizeBlock(&levels, qp, &viaFast)
			refDequantizeBlock(&levels, qp, &exact)
			refDequantizeBlockFast(&levels, qp, &old, &ref)

			fr := bitReader{buf: data}
			got := [64]int32{0: 77, 63: -77} // decodeResidual must write every sample
			before := TransformFallbacks()
			gotCoded, err := decodeResidual(&fr, tablesFor(qp), &got)
			fused += TransformFallbacks() - before
			if err != nil || !gotCoded {
				t.Fatalf("block %d qp %d: decodeResidual = %v, %v", bi, qp, gotCoded, err)
			}
			if readerAt(&fr) != readerAt(&rr) {
				t.Fatalf("block %d qp %d: fused reader stopped at %+v, reference at %+v", bi, qp, readerAt(&fr), readerAt(&rr))
			}
			if got != exact || got != viaFast || got != old {
				t.Fatalf("block %d qp %d: fused residual diverges (exact %v, dequantizeBlock %v, previous fast path %v)",
					bi, qp, got == exact, got == viaFast, got == old)
			}
		}
	}
	if fused > ref {
		t.Fatalf("fused path took %d certified-rounding fallbacks, the per-sample certificate %d", fused, ref)
	}
	t.Logf("%d blocks × %d QPs: %d fallbacks (per-sample certificate: %d)", len(blocks), qpFieldMax+1, fused, ref)
}

// TestIDCTHalfIntegers aims coefficients at the rounding boundary
// itself: DC-only and single-AC blocks whose sample (0, 0) lands on a
// half-integer and one and two ulps either side of it, with the guard
// band the decoder would compute for that coefficient mass and with the
// narrowest band there is. A tie must never be settled by the nearest-
// integer trick (it rounds to even, math.Round away from zero).
func TestIDCTHalfIntegers(t *testing.T) {
	for _, pos := range []int{0, 1, 8, 9, 27, 63} {
		var probe [64]float64
		probe[pos] = 1
		var unit [64]int32
		gain := idctSampleExact(&probe, 0, 0)
		for _, half := range []float64{0.5, -0.5, 1.5, 2.5, -2.5, 127.5, -128.5, 4095.5, 1<<31 - 0.5, -(1 << 31) - 0.5} {
			c := half / gain
			for i := 0; i < 40; i++ {
				c = math.Nextafter(c, math.Inf(-1))
			}
			for i := 0; i < 80; i++ {
				c = math.Nextafter(c, math.Inf(1))
				var coefs [64]float64
				coefs[pos] = c
				rowMask, colMask := uint8(1)<<uint(pos>>3), uint8(1)<<uint(pos&7)
				var want [64]int32
				idct8(&coefs, &want)
				for _, delta := range []float64{math.Abs(c)*certEps + certFloor, certFloor} {
					if pos != 0 && delta == certFloor {
						// Off the DC-only exit fast and exact values differ
						// by ulps, which a band this narrow does not cover.
						continue
					}
					got := unit
					idct8Fast(&coefs, &got, rowMask, colMask, delta)
					if got != want {
						t.Fatalf("pos %d c=%v delta=%g: idct8Fast diverges from idct8 (sample 0: %d vs %d)",
							pos, c, delta, got[0], want[0])
					}
				}
			}
		}
	}
}

// TestCertifiedRoundingMatchesPerSample holds roundCertifiedRow to the
// certificate it replaced — |frac(|s|) − ½| ≥ delta, then math.Round —
// sample by sample: ties, their neighbours, both signs of zero, the
// magnitudes where the nearest-integer trick stops working, and bands
// from the floor to wider than any sample can clear.
func TestCertifiedRoundingMatchesPerSample(t *testing.T) {
	var src [64]float64
	src[0], src[9], src[63] = 1234.5, -77.25, 3.125
	samples := []float64{0, math.Copysign(0, -1), 1e-300, -1e-300, 0.25, -0.25, 0.75, 1, -1,
		1 << 31, -(1 << 31), 1<<31 - 0.5, 1<<49 + 0.5, 1<<50 - 0.5, 1 << 50, 1<<50 + 0.5, -(1<<50 + 0.5),
		1<<51 + 0.5, -(1<<51 + 0.5), 1<<52 - 0.5, -(1<<52 - 0.5), 1<<52 + 1, -(1<<52 + 1), 1 << 60, -(1 << 60),
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, h := range []float64{0.5, 1.5, 2.5, 3.5, 255.5, 65536.5, 1<<40 + 0.5} {
		for _, sign := range []float64{1, -1} {
			s := sign * h
			samples = append(samples, s)
			up, down := s, s
			for i := 0; i < 3; i++ {
				up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
				samples = append(samples, up, down)
			}
			samples = append(samples, s+1e-13, s-1e-13, s+1e-9, s-1e-9, s+0.2, s-0.2)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		samples = append(samples, (rng.Float64()-0.5)*math.Pow(2, float64(rng.Intn(56))))
	}
	for _, delta := range []float64{certFloor, 1e-16, 1e-13, 1e-9, 0.1, 0.25, 0.4999, 0.5, 0.5000001, 4503.6} {
		for i := 0; i+8 <= len(samples); i++ {
			row := samples[i : i+8] // every sample sits at every n, beside every neighbour
			y := i & 7
			var got [8]int32
			before := TransformFallbacks()
			roundCertifiedRow(&src, y, row, got[:], delta)
			took := TransformFallbacks() - before
			var want [8]int32
			var wantTook int64
			for n, s := range row {
				a := math.Abs(s)
				if math.Abs(a-math.Floor(a)-0.5) >= delta {
					want[n] = int32(math.Round(s))
				} else {
					wantTook++
					want[n] = int32(math.Round(idctSampleExact(&src, y, n)))
				}
			}
			if got != want || took != wantTook {
				t.Fatalf("delta %g row %v: got %v after %d fallbacks, per-sample form %v after %d",
					delta, row, got, took, want, wantTook)
			}
		}
	}
}

// errString flattens an error for comparison; the fused and reference
// parsers must fail with the same text or both succeed.
func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestDecodeErrorIdentity feeds the decoder damaged streams and expects
// the reference parser's verdict, word for word: every golden access
// unit cut at every byte, every fifth byte of the smaller streams with one
// bit flipped, and blocks whose count, run and level fields are out of range
// or end mid-symbol. A damaged unit that still parses must decode to the
// reference's frame.
func TestDecodeErrorIdentity(t *testing.T) {
	for _, gc := range goldenCases() {
		raw, err := os.ReadFile(filepath.Join("testdata", "golden_"+gc.name+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		src := gc.src()
		cfg := gc.cfg
		cfg.Width, cfg.Height = src.Resolution()
		stream, err := unmarshalStream(raw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefDecoder(cfg)
		// A unit that fails leaves both decoders' reference planes alone
		// and one that parses rotates them alike, so the two stay in step
		// through any sequence of checks.
		check := func(data []byte, cut bool, format string, args ...any) {
			t.Helper()
			got, gotErr := dec.Decode(data)
			ref.parseOnly = cut
			want, wantErr := ref.Decode(data)
			what := func() string { return gc.name + " " + fmt.Sprintf(format, args...) }
			if errString(gotErr) != errString(wantErr) {
				t.Fatalf("%s: decoder says %q, reference parser %q", what(), errString(gotErr), errString(wantErr))
			}
			if cut && wantErr == nil {
				t.Fatalf("%s: a cut access unit parsed", what())
			}
			if gotErr == nil && !sameFrame(got, want) {
				t.Fatalf("%s: decoded frame diverges from the reference decode", what())
			}
			dec.Recycle(got)
		}
		stride := 1
		if testing.Short() {
			stride = 7
		}
		flip := len(raw) < 8<<10
		for i, f := range stream.Frames {
			for n := 0; n < len(f.Data); n += stride {
				check(f.Data[:n], true, "frame %d cut at %d", i, n)
			}
			if flip {
				bad := append([]byte(nil), f.Data...)
				for n := i % 5; n < len(bad); n += 5 * stride { // the reference decodes these exactly: sampled
					bad[n] ^= 1 << uint(n%8)
					check(bad, false, "frame %d bit %d of byte %d flipped", i, n%8, n)
					bad[n] ^= 1 << uint(n%8)
				}
			}
			check(f.Data, false, "frame %d", i)
		}
	}

	// Block syntax: each script is the symbols after the coded flag.
	type sym struct {
		kind byte // 'u' readUE, 's' readSE, 'z' n zero bits
		v    int64
	}
	scripts := map[string][]sym{
		"count 64":              {{'s', 5}, {'u', 64}},
		"count 2^32-2":          {{'s', 5}, {'u', 1<<32 - 2}},
		"run past the block":    {{'s', 0}, {'u', 2}, {'u', 10}, {'s', 3}, {'u', 52}, {'s', -1}},
		"run to position 64":    {{'s', 1}, {'u', 1}, {'u', 63}, {'s', 1}},
		"huge run":              {{'s', 1}, {'u', 1}, {'u', 1<<32 - 2}, {'s', 1}},
		"zero level":            {{'s', -4}, {'u', 3}, {'u', 0}, {'s', 9}, {'u', 5}, {'s', 0}, {'u', 0}, {'s', 1}},
		"zero level past 64":    {{'s', 1}, {'u', 1}, {'u', 70}, {'s', 0}},
		"invalid code in DC":    {{'z', 40}},
		"invalid code in count": {{'s', 2}, {'z', 33}},
		"invalid code in run":   {{'s', 2}, {'u', 2}, {'z', 48}},
		"invalid code in level": {{'s', 2}, {'u', 2}, {'u', 1}, {'z', 64}},
		"ends in DC":            {{'z', 3}},
		"ends in count":         {{'s', 2}, {'z', 5}},
		"ends in run":           {{'s', 2}, {'u', 1}, {'z', 2}},
		"ends in level":         {{'s', 2}, {'u', 1}, {'u', 0}, {'z', 7}},
		"ends after a pair":     {{'s', 2}, {'u', 2}, {'u', 0}, {'s', 300}},
		"well formed":           {{'s', 2}, {'u', 2}, {'u', 0}, {'s', 300}, {'u', 61}, {'s', -1}},
	}
	for name, script := range scripts {
		w := &bitWriter{}
		w.writeBits(1, 1)
		for _, sy := range script {
			switch sy.kind {
			case 'u':
				w.writeUE(uint32(sy.v))
			case 's':
				w.writeSE(int32(sy.v))
			case 'z':
				for n := sy.v; n > 0; n -= 32 {
					w.writeBits(0, uint(min(n, 32)))
				}
			}
		}
		data := w.bytes()
		rr, fr := bitReader{buf: data}, bitReader{buf: data}
		var levels, res [64]int32
		wantCoded, wantErr := decodeBlock(&rr, &levels)
		gotCoded, gotErr := decodeResidual(&fr, tablesFor(24), &res)
		if gotCoded != wantCoded || errString(gotErr) != errString(wantErr) || readerAt(&fr) != readerAt(&rr) {
			t.Errorf("%s: decodeResidual = %v, %q at %v; decodeBlock = %v, %q at %v",
				name, gotCoded, errString(gotErr), readerAt(&fr), wantCoded, errString(wantErr), readerAt(&rr))
		}
		if (wantErr == nil) != (name == "well formed") {
			t.Errorf("%s: reference parser returned %q", name, errString(wantErr))
		}
	}
}

func sameFrame(a, b *video.Frame) bool {
	return a.W == b.W && a.H == b.H && regionEqual(a, b, TileRect{W: a.W, H: a.H})
}
