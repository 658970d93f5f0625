package codec

import (
	"math"
	"sync/atomic"
)

// Butterfly evaluation of the 8×8 DCT/IDCT. The 1-D transform is
// factored into even/odd halves using the cosine symmetry
// B[k][7-n] = (-1)^k · B[k][n]: the even-frequency half consumes the
// sums of mirrored samples, the odd half their differences, cutting the
// multiply count per 1-D pass from 64 to 32. The 4×4 sub-matrices are
// precomputed — transposed so the inner products walk them contiguously
// — from the same dctBasis constants as the reference formulation, so
// every product the fast path forms is a product the exact path also
// forms; only the summation order differs.
//
// That reordering perturbs results by a few ulps, so every rounding
// decision is certified: if a fast value lands within the guard band
// delta of a rounding boundary, the sample or coefficient is recomputed
// with the exact reference formulation (transform.go). delta scales
// with the block's coefficient mass — orders of magnitude above the
// true summation-order error, orders of magnitude below typical
// distances to a boundary — so fallbacks are vanishingly rare and the
// output is bit-identical to the reference path on every input (the
// golden corpus and the equivalence tests in transform_fast_test.go
// enforce this).
//
// Both formulations round every product explicitly — float64(a*b) + c,
// never a*b + c — because the Go spec lets a compiler fuse the latter
// into one multiply-add, which rounds once instead of twice, and the arm64
// compiler does: the fast values, the guard band's premise and the exact
// fallbacks would all depend on the architecture. On amd64 the
// conversions compile to nothing.

const (
	// certEps scales the certified-rounding guard band by the block's
	// absolute coefficient sum; the true butterfly-vs-reference error is
	// bounded by ~2⁻⁴⁸ of that sum, leaving ~4 orders of magnitude of
	// safety margin.
	certEps = 1e-12
	// certFloor keeps the band open for all-but-zero blocks.
	certFloor = 1e-18
)

// transformFallbacks counts certified-rounding fallbacks to the exact
// formulation — observability for tests and for judging whether the
// guard band is tight enough in practice.
var transformFallbacks atomic.Int64

// TransformFallbacks returns the cumulative number of (qp, coefficient)
// cases the butterfly path handed back to the exact formulation.
func TransformFallbacks() int64 { return transformFallbacks.Load() }

// Even/odd butterfly sub-matrices, derived from dctBasis in init.
var (
	// Forward: X[2u] = Σⱼ (x[j]+x[7-j])·fevenB[u][j],
	//          X[2u+1] = Σⱼ (x[j]-x[7-j])·foddB[u][j].
	fevenB, foddB [4][4]float64
	// Inverse (transposed layout): e[n] = Σⱼ X[2j]·ievenB[n][j],
	// o[n] = Σⱼ X[2j+1]·ioddB[n][j]; x[n]=e[n]+o[n], x[7-n]=e[n]-o[n].
	ievenB, ioddB [4][4]float64
	// dc0 is dctBasis[0][n], constant across n.
	dc0 float64
	// fdctLanes is the forward butterfly by output, each constant twice,
	// one per SSE2 lane (kernels_amd64.s): X[k] = Σⱼ v[j]·fdctLanes[k][j][·],
	// v the mirrored sums for even k and the differences for odd k.
	fdctLanes [8][4][2]float64
)

// init derives the butterfly tables from dctBasis, which transform.go's
// init has built by now. Package-level initializers run before every
// init, and the inits in file-name order, so a table filled from dctBasis
// anywhere earlier — a package-level initializer, or an init in
// kernels_amd64.go — would read zeros.
func init() {
	for u := 0; u < 4; u++ {
		for j := 0; j < 4; j++ {
			fevenB[u][j] = dctBasis[2*u][j]
			foddB[u][j] = dctBasis[2*u+1][j]
			ievenB[u][j] = dctBasis[2*j][u]
			ioddB[u][j] = dctBasis[2*j+1][u]
			fdctLanes[2*u][j] = [2]float64{fevenB[u][j], fevenB[u][j]}
			fdctLanes[2*u+1][j] = [2]float64{foddB[u][j], foddB[u][j]}
		}
	}
	dc0 = dctBasis[0][0]
}

// fdct1dFast computes one forward 1-D pass X[k] = Σₙ x[n]·B[k][n] via
// the even/odd butterfly, operands and results in registers like
// idct1dFast so that fdct8Fast walks rows and columns in place.
func fdct1dFast(x0, x1, x2, x3, x4, x5, x6, x7 float64) (X0, X1, X2, X3, X4, X5, X6, X7 float64) {
	s0, s1, s2, s3 := x0+x7, x1+x6, x2+x5, x3+x4
	d0, d1, d2, d3 := x0-x7, x1-x6, x2-x5, x3-x4
	return float64(s0*fevenB[0][0]) + float64(s1*fevenB[0][1]) + float64(s2*fevenB[0][2]) + float64(s3*fevenB[0][3]),
		float64(d0*foddB[0][0]) + float64(d1*foddB[0][1]) + float64(d2*foddB[0][2]) + float64(d3*foddB[0][3]),
		float64(s0*fevenB[1][0]) + float64(s1*fevenB[1][1]) + float64(s2*fevenB[1][2]) + float64(s3*fevenB[1][3]),
		float64(d0*foddB[1][0]) + float64(d1*foddB[1][1]) + float64(d2*foddB[1][2]) + float64(d3*foddB[1][3]),
		float64(s0*fevenB[2][0]) + float64(s1*fevenB[2][1]) + float64(s2*fevenB[2][2]) + float64(s3*fevenB[2][3]),
		float64(d0*foddB[2][0]) + float64(d1*foddB[2][1]) + float64(d2*foddB[2][2]) + float64(d3*foddB[2][3]),
		float64(s0*fevenB[3][0]) + float64(s1*fevenB[3][1]) + float64(s2*fevenB[3][2]) + float64(s3*fevenB[3][3]),
		float64(d0*foddB[3][0]) + float64(d1*foddB[3][1]) + float64(d2*foddB[3][2]) + float64(d3*foddB[3][3])
}

// fdct8Fast computes the forward 2D DCT of src into dst with butterfly
// 1-D passes (rows, then columns), matching fdct8 up to summation-order
// rounding.
func fdct8Fast(src *[64]int32, dst *[64]float64) {
	var tmp [64]float64
	for y := 0; y < 8; y++ {
		s := src[y*8 : y*8+8 : y*8+8]
		t := tmp[y*8 : y*8+8 : y*8+8]
		t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7] = fdct1dFast(
			float64(s[0]), float64(s[1]), float64(s[2]), float64(s[3]),
			float64(s[4]), float64(s[5]), float64(s[6]), float64(s[7]))
	}
	for x := 0; x < 8; x++ {
		dst[x], dst[8+x], dst[16+x], dst[24+x], dst[32+x], dst[40+x], dst[48+x], dst[56+x] =
			fdct1dFast(tmp[x], tmp[8+x], tmp[16+x], tmp[24+x], tmp[32+x], tmp[40+x], tmp[48+x], tmp[56+x])
	}
}

// idct1dFast computes one inverse 1-D pass x[n] = Σₖ i[k]·B[k][n] via the
// even/odd butterfly, operands and results in registers so that callers
// walk columns and rows in place. mask flags which i[k] may be nonzero:
// all-zero halves are skipped outright (their contribution is exactly
// zero), and the ubiquitous DC-only even half collapses to a single
// multiply.
func idct1dFast(i0, i1, i2, i3, i4, i5, i6, i7 float64, mask uint8) (x0, x1, x2, x3, x4, x5, x6, x7 float64) {
	var e0, e1, e2, e3, o0, o1, o2, o3 float64
	switch {
	case mask&0x55 == 0:
		// Even half entirely zero: e stays 0.
	case mask&0x54 == 0:
		// DC only: B[0][n] is the constant dc0.
		e0 = i0 * dc0
		e1, e2, e3 = e0, e0, e0
	default:
		e0 = float64(i0*ievenB[0][0]) + float64(i2*ievenB[0][1]) + float64(i4*ievenB[0][2]) + float64(i6*ievenB[0][3])
		e1 = float64(i0*ievenB[1][0]) + float64(i2*ievenB[1][1]) + float64(i4*ievenB[1][2]) + float64(i6*ievenB[1][3])
		e2 = float64(i0*ievenB[2][0]) + float64(i2*ievenB[2][1]) + float64(i4*ievenB[2][2]) + float64(i6*ievenB[2][3])
		e3 = float64(i0*ievenB[3][0]) + float64(i2*ievenB[3][1]) + float64(i4*ievenB[3][2]) + float64(i6*ievenB[3][3])
	}
	if mask&0xAA != 0 {
		o0 = float64(i1*ioddB[0][0]) + float64(i3*ioddB[0][1]) + float64(i5*ioddB[0][2]) + float64(i7*ioddB[0][3])
		o1 = float64(i1*ioddB[1][0]) + float64(i3*ioddB[1][1]) + float64(i5*ioddB[1][2]) + float64(i7*ioddB[1][3])
		o2 = float64(i1*ioddB[2][0]) + float64(i3*ioddB[2][1]) + float64(i5*ioddB[2][2]) + float64(i7*ioddB[2][3])
		o3 = float64(i1*ioddB[3][0]) + float64(i3*ioddB[3][1]) + float64(i5*ioddB[3][2]) + float64(i7*ioddB[3][3])
	}
	return e0 + o0, e1 + o1, e2 + o2, e3 + o3, e3 - o3, e2 - o2, e1 - o1, e0 - o0
}

const (
	// roundMagic is 1.5·2⁵²: for |s| < 2⁵¹ the sum s+roundMagic lies in
	// [2⁵², 2⁵³), where a float64 holds integers only, so the addition
	// itself rounds s to the nearest integer (ties to even) and
	// subtracting roundMagic — exact — leaves that integer.
	roundMagic = 3 << 51
	// roundLimit keeps the trick well inside its domain; samples this
	// large only arise from fuzzed levels, whose guard band is far above
	// ½ anyway.
	roundLimit = 1 << 50
)

// roundCertifiedRow is the certified rounding of the fast IDCT samples
// row[n] at (y, n) into out[n]: int32(math.Round(s)) for a sample at
// least delta away from a math.Round boundary, else the exactly
// recomputed sample, rounded.
//
// r is the integer nearest s, so ½−|s−r| is s's distance to the nearest
// half-integer: roundCertifiedSlow's test in other words. r differs from
// math.Round(s) only on an exact tie, and a tie is at distance 0, inside
// every band (delta ≥ certFloor > 0). A row with a sample this does not
// settle is redone by roundCertifiedSlow, which settles every sample.
func roundCertifiedRow(src *[64]float64, y int, row []float64, out []int32, delta float64) {
	for n, s := range row {
		r := (s + roundMagic) - roundMagic
		if !(0.5-math.Abs(s-r) >= delta && math.Abs(s) < roundLimit) {
			for n, s := range row {
				out[n] = roundCertifiedSlow(src, y, n, s, delta)
			}
			return
		}
		out[n] = int32(r)
	}
}

// roundCertifiedSlow is the rounding decision spelled with math.Floor
// and math.Round, for the rows roundCertifiedRow does not settle: a
// sample inside the band goes to the exact formulation, and one too
// large for the nearest-integer trick is rounded as it always was.
func roundCertifiedSlow(src *[64]float64, y, n int, s, delta float64) int32 {
	a := math.Abs(s)
	if math.Abs(a-math.Floor(a)-0.5) >= delta {
		return int32(math.Round(s))
	}
	transformFallbacks.Add(1)
	return int32(math.Round(idctSampleExact(src, y, n)))
}

// idct8Fast computes the inverse 2D DCT of src into dst: butterfly
// column pass (skipping all-zero coefficient columns via colMask and
// all-zero rows via rowMask), butterfly row pass, then certified
// rounding a row at a time — any value within delta of a math.Round
// boundary is recomputed exactly so dst is bit-identical to idct8.
func idct8Fast(src *[64]float64, dst *[64]int32, rowMask, colMask uint8, delta float64) {
	if rowMask == 1 && colMask == 1 {
		// DC only: both passes reduce to the constant dc0, so all 64
		// samples are the one value (c·dc0)·dc0 — what the general passes
		// below compute for every sample — rounded and certified once.
		s := [1]float64{src[0] * dc0 * dc0}
		roundCertifiedRow(src, 0, s[:], dst[:1], delta)
		for i := range dst {
			dst[i] = dst[0]
		}
		return
	}
	var tmp [64]float64
	for x := 0; x < 8; x++ {
		if colMask&(1<<uint(x)) == 0 {
			continue // whole coefficient column zero: tmp column stays zero
		}
		tmp[x], tmp[8+x], tmp[16+x], tmp[24+x], tmp[32+x], tmp[40+x], tmp[48+x], tmp[56+x] =
			idct1dFast(src[x], src[8+x], src[16+x], src[24+x], src[32+x], src[40+x], src[48+x], src[56+x], rowMask)
	}
	var row [8]float64
	for y := 0; y < 8; y++ {
		t := tmp[y*8 : y*8+8 : y*8+8]
		row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[7] =
			idct1dFast(t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7], colMask)
		roundCertifiedRow(src, y, row[:], dst[y*8:y*8+8], delta)
	}
}
