package codec

import "math/bits"

// The transform stage is the 8×8 integer transform of H.264 High profile —
// adds, subtracts and arithmetic shifts on int32 — with a multiply-shift
// quantizer and dequantizer built from integer per-QP tables. There is no
// float arithmetic anywhere between samples and bits: the decoder's
// residual is a function of the levels computed in int32, and the encoder
// reconstructs its reference with the very same function, so encoder and
// decoder agree on every machine by construction (DESIGN.md §5.9).
//
// Coefficients are stored in raster order, z = k*8 + j: k is the vertical
// frequency (row of the coefficient block), j the horizontal one.

// zigzag is the standard JPEG/H.26x zigzag scan order for 8×8 blocks.
var zigzag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// unzigzag inverts zigzag: unzigzag[z] is the scan position of the
// coefficient at flat index z.
var unzigzag = func() (u [64]uint8) {
	for i, z := range zigzag {
		u[z] = uint8(i)
	}
	return u
}()

const (
	qpMin = 0
	qpMax = 51
	// qpFieldMax is the largest value the 6-bit frame-header QP field can
	// carry. Encoders clamp to qpMax, but the decoder tolerates the full
	// wire range, so the tables cover it (a fuzzed header must index a
	// table entry, never out of range).
	qpFieldMax = 63
	// coefLimit bounds a dequantized coefficient, |level·Deq| ≤ coefLimit.
	// Each 1-D inverse pass grows a value by less than 16×, so two passes
	// stay far inside int32; a legitimate stream stays below 2¹⁸ (an 8×8
	// block of ±255 samples), and a level beyond the limit is a syntax
	// error rather than a wrap.
	coefLimit = 1 << 20
)

// The transform's basis vectors are orthogonal but not of one length:
// rows 0 and 4 have norm² 8, rows 2 and 6 norm² 5 and the odd rows
// (12, 10, 6, 3, …)/8 norm² 578/64. A coefficient at (k, j) carries the
// product of two of them, which puts each position in one of six classes.
//
// levelScale is H.264's normAdjust8×8: the dequantizer's scale for class
// c at qp%6, doubling every six QP. A level l reconstructs as l·levelScale
// ≪ qp/6, in units of 1/256 of the orthonormal coefficient over nₖ·nⱼ, so
// the step at class 0 and QP 0 is 20·8/256 = 0.625 and doubles every six
// QP, as H.264's does.
var levelScale = [6][6]int32{
	{20, 18, 32, 19, 25, 24},
	{22, 19, 35, 21, 28, 26},
	{26, 23, 42, 24, 33, 31},
	{28, 25, 45, 26, 35, 33},
	{32, 28, 51, 30, 40, 38},
	{36, 32, 58, 34, 46, 43},
}

// classNorm2 is each class's (nₖ·nⱼ)², times 2¹² to make it an integer.
var classNorm2 = [6]int64{8 * 8 << 12, 578 * 578, 5 * 5 << 12, 8 * 578 << 6, 8 * 5 << 12, 5 * 578 << 6}

// posClass is the class of the coefficient at (k, j).
func posClass(k, j int) int {
	switch {
	case k%4 == 0 && j%4 == 0:
		return 0
	case k%2 == 1 && j%2 == 1:
		return 1
	case k%4 == 2 && j%4 == 2:
		return 2
	case k%4 == 0 && j%2 == 1, k%2 == 1 && j%4 == 0:
		return 3
	case k%4 == 0 && j%4 == 2, k%4 == 2 && j%4 == 0:
		return 4
	}
	return 5
}

// qpTables are one QP's quantizer and dequantizer, per raster position.
// A coefficient Y quantizes to (|Y|·Quant + Round) >> Shift with Y's sign
// and a level l dequantizes to l·Deq. Quant is the multiplier whose
// product with Deq reconstructs |Y| to the nearest step — 2³⁶ over
// levelScale·classNorm2, rounded — so a level is unbiased; Round rounds
// the DC to nearest and gives the AC positions a dead zone (bias ⅓ of a
// step) that suppresses low-energy coefficients.
//
// ZeroSum certifies whole blocks: a residual with Σ|res| < ZeroSum has no
// level to keep (see quantizeResidual).
type qpTables struct {
	Quant      [64]int16 // < 2¹⁵ at every QP
	Round, Deq [64]int32
	Shift      uint
	ZeroSum    int64
}

// The zero certificate's constants, per 1-D output k, all times 8: the
// largest |entry| of basis row k, the row's Σ|entry|, and the most the
// pass's shifts move output k off its exact value — nothing at k = 0 and
// 4, a dropped half at 2 and 6, and at the odd outputs a dropped half in
// b4…b7 plus, after one of them is shifted by 2, an eighth and ¾.
var (
	rowMax8   = [8]int64{8, 12, 8, 12, 8, 12, 8, 12}
	rowSum8   = [8]int64{64, 62, 48, 62, 64, 62, 48, 62}
	rowSlack8 = [8]int64{0, 11, 4, 11, 0, 11, 4, 11}
)

var qpTab = func() (tab [qpFieldMax + 1]qpTables) {
	for qp := range tab {
		t := &tab[qp]
		t.Shift = 16 + uint(qp/6)
		t.ZeroSum = 1<<63 - 1
		for z := range t.Quant {
			k, j := z>>3, z&7
			c := posClass(k, j)
			v := levelScale[qp%6][c]
			t.Quant[z] = int16((1<<36 + int64(v)*classNorm2[c]/2) / (int64(v) * classNorm2[c]))
			t.Deq[z] = v << uint(qp/6)
			t.Round[z] = int32(1<<t.Shift) / 3
			if z == 0 {
				t.Round[z] = 1 << (t.Shift - 1)
			}
			// Against the bound |Y| ≤ (max₍k₎·max₍j₎·Σ|res| + slack₍k₎·sum₍j₎
			// + 8·slack₍j₎)/64 (the column pass runs first), every position
			// stays under its threshold while Σ|res| < ⌈(64·threshold −
			// slack)/gain⌉.
			num := 64*t.threshold(z) - rowSlack8[k]*rowSum8[j] - 8*rowSlack8[j]
			gain := rowMax8[k] * rowMax8[j]
			t.ZeroSum = min(t.ZeroSum, max(0, (num+gain-1)/gain))
		}
	}
	return tab
}()

// threshold is the smallest |Y| that keeps a level at raster position z.
func (t *qpTables) threshold(z int) int64 {
	return (int64(1)<<t.Shift - int64(t.Round[z]) + int64(t.Quant[z]) - 1) / int64(t.Quant[z])
}

// tablesFor returns the quant/dequant tables for qp.
func tablesFor(qp int) *qpTables { return &qpTab[qp] }

// fdct1d is one forward 1-D pass of the integer transform.
func fdct1d(p0, p1, p2, p3, p4, p5, p6, p7 int32) (y0, y1, y2, y3, y4, y5, y6, y7 int32) {
	a0, a1, a2, a3 := p0+p7, p1+p6, p2+p5, p3+p4
	a4, a5, a6, a7 := p0-p7, p1-p6, p2-p5, p3-p4
	b0, b1, b2, b3 := a0+a3, a1+a2, a0-a3, a1-a2
	b4 := a5 + a6 + (a4>>1 + a4)
	b5 := a4 - a7 - (a6>>1 + a6)
	b6 := a4 + a7 - (a5>>1 + a5)
	b7 := a5 - a6 + (a7>>1 + a7)
	return b0 + b1, b4 + b7>>2, b2 + b3>>1, b5 + b6>>2, b0 - b1, b6 - b5>>2, b2>>1 - b3, b4>>2 - b7
}

// fdct8Generic is the forward 2-D transform of the residual src into the
// raster coefficients dst: the columns, then the rows. src must hold
// residuals, |src[i]| ≤ 255: every intermediate value then fits int16,
// which the SSE2 twin (kernels_amd64.s) computes in, and |dst[i]| < 2¹⁴.
func fdct8Generic(src *[64]int32, dst *[64]int32) {
	var t [64]int32
	for x := 0; x < 8; x++ {
		t[x], t[8+x], t[16+x], t[24+x], t[32+x], t[40+x], t[48+x], t[56+x] =
			fdct1d(src[x], src[8+x], src[16+x], src[24+x], src[32+x], src[40+x], src[48+x], src[56+x])
	}
	for k := 0; k < 8; k++ {
		r, d := t[k*8:k*8+8:k*8+8], dst[k*8:k*8+8:k*8+8]
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = fdct1d(r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7])
	}
}

// fdctQuantGeneric transforms the residual src and quantizes every
// coefficient with t into the raster levels lv, returning the raster mask
// of the nonzero ones (bit z set iff lv[z] != 0). It is the portable
// implementation and the reference of fdctQuantSSE2.
func fdctQuantGeneric(src *[64]int32, t *qpTables, lv *[64]int16) (nz uint64) {
	var coefs [64]int32
	fdct8Generic(src, &coefs)
	for z, c := range coefs {
		l := (max(c, -c)*int32(t.Quant[z]) + t.Round[z]) >> t.Shift
		if c < 0 {
			l = -l
		}
		lv[z] = int16(l)
		if l != 0 {
			nz |= 1 << uint(z)
		}
	}
	return nz
}

// idct1d is one inverse 1-D pass, H.264's 8×8 inverse transform.
func idct1d(d0, d1, d2, d3, d4, d5, d6, d7 int32) (x0, x1, x2, x3, x4, x5, x6, x7 int32) {
	a0, a4 := d0+d4, d0-d4
	a2, a6 := d2>>1-d6, d2+d6>>1
	b0, b2, b4, b6 := a0+a6, a4+a2, a4-a2, a0-a6
	a1 := d5 - d3 - d7 - d7>>1
	a3 := d1 + d7 - d3 - d3>>1
	a5 := d7 - d1 + d5 + d5>>1
	a7 := d3 + d5 + d1 + d1>>1
	b1, b7 := a1+a7>>2, a7-a1>>2
	b3, b5 := a3+a5>>2, a3>>2-a5
	return b0 + b7, b2 + b5, b4 + b3, b6 + b1, b6 - b1, b4 - b3, b2 - b5, b0 - b7
}

// idct8 is the inverse 2-D transform of the dequantized raster
// coefficients src into the residual dst: the rows, then the columns, then
// (x + 128) >> 8. rowMask and colMask flag the coefficient rows and
// columns that may be nonzero, at least one; each |src[i]| ≤ coefLimit. A
// block with only its DC is one value everywhere and a block with only
// its top row one value down each column — what the full passes compute,
// since a pass over (d, 0, …, 0) gives d eight times; any other block
// goes to the kernel (SSE2 on amd64).
func idct8(src *[64]int32, dst *[64]int32, rowMask, colMask uint8) {
	if rowMask != 1 {
		idct8Rows(src, dst, rowMask)
		return
	}
	var t [8]int32
	if colMask == 1 {
		t[0] = src[0]
		t[1], t[2], t[3], t[4], t[5], t[6], t[7] = t[0], t[0], t[0], t[0], t[0], t[0], t[0]
	} else {
		t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7] = idct1d(src[0], src[1], src[2], src[3], src[4], src[5], src[6], src[7])
	}
	for x := range t {
		t[x] = (t[x] + 128) >> 8
	}
	for y := 0; y < 64; y += 8 {
		copy(dst[y:y+8], t[:])
	}
}

// idct8Generic is idct8's full passes: the coefficient rows in rowMask
// (a zero row transforms to zeros), then every column, then the
// rounding. It is the portable implementation and the reference of
// idct8SSE2, which transforms every row.
func idct8Generic(src *[64]int32, dst *[64]int32, rowMask uint8) {
	var t [64]int32
	for k := 0; k < 8; k++ {
		if rowMask&(1<<uint(k)) == 0 {
			continue
		}
		s, d := src[k*8:k*8+8:k*8+8], t[k*8:k*8+8:k*8+8]
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = idct1d(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7])
	}
	for x := 0; x < 8; x++ {
		x0, x1, x2, x3, x4, x5, x6, x7 := idct1d(t[x], t[8+x], t[16+x], t[24+x], t[32+x], t[40+x], t[48+x], t[56+x])
		dst[x], dst[8+x], dst[16+x], dst[24+x] = (x0+128)>>8, (x1+128)>>8, (x2+128)>>8, (x3+128)>>8
		dst[32+x], dst[40+x], dst[48+x], dst[56+x] = (x4+128)>>8, (x5+128)>>8, (x6+128)>>8, (x7+128)>>8
	}
}

// quantizeResidual is the encoder's block in one pass: it transforms and
// quantizes the residual res (whose Σ|res| the extraction already summed
// into sumAbs) and, for a block that keeps any level, leaves in res the
// residual the decoder will reconstruct from those levels. The result is
// the block's nonzero mask — bit i set iff the level at zigzag position i
// is nonzero — and it is the only description of the block there is:
// levels holds a value at the mask's positions and whatever it held
// before everywhere else, the block is coded iff the mask is nonzero, and
// for an uncoded block res is left as it was (callers store the
// prediction alone).
//
// Nearly every block of a P-frame quantizes to nothing, and ZeroSum says
// so before the transform runs. A coefficient is a sum of products of
// the residual with two basis rows, each entry at most 1.5, so |Y| ≤
// 2.25·Σ|res| at the odd-odd positions (Σ|res| at the even ones) — plus
// what the shifts drop, bounded per position; a block whose bound is
// below every position's threshold has no level to keep.
//
// The transform and the quantizer are one kernel (fdctQuant), which hands
// back the levels in raster order with the mask of the nonzero ones; each
// of those goes to its zigzag slot and straight to its dequantized
// coefficient, with the row/column masks idct8 skips by — what
// decodeResidual builds from the same levels.
func quantizeResidual(res *[64]int32, sumAbs int64, t *qpTables, levels *[64]int32) uint64 {
	if sumAbs < t.ZeroSum {
		return 0
	}
	var lv [64]int16
	nz := fdctQuant(res, t, &lv)
	if nz == 0 {
		return 0
	}
	var coefs [64]int32
	var mask uint64
	var rowMask, colMask uint8
	for ; nz != 0; nz &= nz - 1 {
		z := bits.TrailingZeros64(nz) & 63
		l := int32(lv[z])
		pos := unzigzag[z]
		levels[pos] = l
		mask |= 1 << pos
		coefs[z] = l * t.Deq[z]
		rowMask |= 1 << uint(z>>3)
		colMask |= 1 << uint(z&7)
	}
	idct8(&coefs, res, rowMask, colMask)
	return mask
}

// abs64 is |v| as an int64, which holds it for every int32 v.
func abs64(v int32) int64 {
	if v < 0 {
		return -int64(v)
	}
	return int64(v)
}

// TransformFallbacks returns 0: the integer transform is exact, so no
// coefficient is ever handed to a second formulation. It remains for the
// benchmark's codec.transform_fallbacks metric.
func TransformFallbacks() int64 { return 0 }
