package codec

import (
	"math"
	"sync"
)

// The transform stage uses an 8×8 type-II DCT with orthonormal scaling,
// computed in float64 with explicit rounding at quantization time. The
// basis is precomputed once; forward and inverse transforms are exact
// inverses up to quantization.
//
// The hot path (transform_fast.go) evaluates the same transform through
// even/odd butterfly 1-D passes and folds the quantizer step into
// per-QP lookup tables. Its results are kept bit-identical to this
// reference formulation by certified rounding: any (qp, coefficient)
// whose fast value lands within a guard band of a rounding boundary is
// recomputed with the exact functions below (see DESIGN.md §5.9). The
// reference formulation therefore remains the codec's definition of
// correctness — the golden corpus under testdata/ pins it.

const blockSize = 8

// dctBasis[k][n] = c(k) * cos((2n+1)kπ/16), c(0)=sqrt(1/8), c(k>0)=sqrt(2/8).
var dctBasis [blockSize][blockSize]float64

func init() {
	for k := 0; k < blockSize; k++ {
		c := math.Sqrt(2.0 / blockSize)
		if k == 0 {
			c = math.Sqrt(1.0 / blockSize)
		}
		for n := 0; n < blockSize; n++ {
			dctBasis[k][n] = c * math.Cos(float64(2*n+1)*float64(k)*math.Pi/(2*blockSize))
		}
	}
}

// fdct8 computes the forward 2D DCT of the 8×8 block src (row-major
// residual samples) into dst. Exact reference formulation.
func fdct8(src *[64]int32, dst *[64]float64) {
	var tmp [64]float64
	// Rows.
	for y := 0; y < 8; y++ {
		for k := 0; k < 8; k++ {
			var s float64
			for n := 0; n < 8; n++ {
				s += float64(float64(src[y*8+n]) * dctBasis[k][n])
			}
			tmp[y*8+k] = s
		}
	}
	// Columns.
	for x := 0; x < 8; x++ {
		for k := 0; k < 8; k++ {
			var s float64
			for n := 0; n < 8; n++ {
				s += float64(tmp[n*8+x] * dctBasis[k][n])
			}
			dst[k*8+x] = s
		}
	}
}

// idct8 computes the inverse 2D DCT of the 8×8 coefficient block src
// into integer samples dst (rounded to nearest). Exact reference
// formulation.
func idct8(src *[64]float64, dst *[64]int32) {
	var tmp [64]float64
	// Columns.
	for x := 0; x < 8; x++ {
		for n := 0; n < 8; n++ {
			var s float64
			for k := 0; k < 8; k++ {
				s += float64(src[k*8+x] * dctBasis[k][n])
			}
			tmp[n*8+x] = s
		}
	}
	// Rows.
	for y := 0; y < 8; y++ {
		for n := 0; n < 8; n++ {
			var s float64
			for k := 0; k < 8; k++ {
				s += float64(tmp[y*8+k] * dctBasis[k][n])
			}
			dst[y*8+n] = int32(math.Round(s))
		}
	}
}

// fdctCoefExact reproduces fdct8's value for the single coefficient at
// flat index z = k*8+x, operation for operation: the exact first-pass
// column x of tmp, then the exact second-pass dot product. Used as the
// certified-rounding fallback of the butterfly forward transform.
func fdctCoefExact(src *[64]int32, z int) float64 {
	k, x := z>>3, z&7
	var tcol [8]float64
	for y := 0; y < 8; y++ {
		var s float64
		for n := 0; n < 8; n++ {
			s += float64(float64(src[y*8+n]) * dctBasis[x][n])
		}
		tcol[y] = s
	}
	var s float64
	for n := 0; n < 8; n++ {
		s += float64(tcol[n] * dctBasis[k][n])
	}
	return s
}

// idctSampleExact reproduces idct8's pre-rounding value for the single
// sample (y, n), operation for operation. Used as the certified-
// rounding fallback of the butterfly inverse transform.
func idctSampleExact(src *[64]float64, y, n int) float64 {
	var trow [8]float64
	for k := 0; k < 8; k++ {
		var s float64
		for j := 0; j < 8; j++ {
			s += float64(src[j*8+k] * dctBasis[j][y])
		}
		trow[k] = s
	}
	var s float64
	for k := 0; k < 8; k++ {
		s += float64(trow[k] * dctBasis[k][n])
	}
	return s
}

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

// qStep maps a quantization parameter in [qpMin, qpMax] to a scalar
// quantizer step size, doubling every 6 QP as in H.264.
func qStep(qp int) float64 {
	return 0.625 * math.Pow(2, float64(qp)/6)
}

const (
	qpMin = 0
	qpMax = 51
	// qpFieldMax is the largest value the 6-bit frame-header QP field can
	// carry. Encoders clamp to qpMax, but the decoder tolerates the full
	// wire range, so the LUTs cover it (a fuzzed header must index a
	// table entry, never out of range).
	qpFieldMax = 63
)

// qpTables folds the quantizer math for one QP into lookup tables, so
// the per-block loops never touch math.Pow. Deq carries one scale per
// zigzag position: today the quantization matrix is flat (every entry
// equals Step, bit-for-bit), but the hot loops index it positionally so
// a frequency-weighted matrix stays a table swap.
type qpTables struct {
	Step float64     // scalar quantizer step (exactly qStep(qp))
	Bias float64     // dead-zone bias, exactly Step/3 as the reference computes it
	Deq  [64]float64 // per-zigzag-position dequant scale
	// Zero certificates (see quantizeResidual): a DC coefficient below
	// ZeroDC rounds to level 0 and an AC coefficient below ZeroAC falls in
	// the dead zone, both short of the true thresholds (Step/2 and
	// Step−Bias) by the relative margin zeroMargin.
	ZeroDC, ZeroAC float64
}

// zeroMargin keeps the zero-block certificates clear of the quantizer's
// decision thresholds. It is relative to the step and five orders of
// magnitude wider than the certEps guard band, so a certified coefficient
// is never one the certified-rounding path would have had to recompute.
const zeroMargin = 1e-7

var (
	qpTabOnce sync.Once
	qpTab     [qpFieldMax + 1]qpTables
)

// tablesFor returns the quant/dequant tables for qp, building the full
// table set lazily on first use.
func tablesFor(qp int) *qpTables {
	qpTabOnce.Do(func() {
		for q := 0; q <= qpFieldMax; q++ {
			qpTab[q] = newQPTables(qStep(q))
		}
	})
	return &qpTab[qp]
}

// newQPTables builds the tables of one quantizer step.
func newQPTables(step float64) (t qpTables) {
	t.Step = step
	t.Bias = step / 3
	t.ZeroDC = step / 2 * (1 - zeroMargin)
	t.ZeroAC = (step - step/3) * (1 - zeroMargin)
	for i := range t.Deq {
		t.Deq[i] = step
	}
	return t
}

// unzigzag inverts zigzag: unzigzag[z] is the scan position of the
// coefficient at flat index z.
var unzigzag = func() (u [64]uint8) {
	for i, z := range zigzag {
		u[z] = uint8(i)
	}
	return u
}()

// quantizeResidual is the encoder's block in one pass: it transforms and
// quantizes the residual res (whose Σ|res| the extraction already summed
// into sumAbs) and, for a block that keeps any level, leaves in res the
// residual the decoder will reconstruct from those levels. The result is
// the block's nonzero mask — bit i set iff the level at zigzag position i
// is nonzero — and it is the only description of the block there is:
// levels holds a value at the mask's positions and whatever it held
// before everywhere else, the block is coded iff the mask is nonzero, and
// for an uncoded block res is left as it was (callers store the
// prediction alone). Frequency position 0 (DC) uses plain rounding; AC
// positions use a dead zone to suppress low-energy coefficients.
//
// The transform runs on the butterfly fast path; every level whose fast
// coefficient lands inside the certified-rounding guard band is redone
// with the exact reference formulation, keeping the output bit-identical
// to a fully exact encode (DESIGN.md §5.9).
//
// Nearly every coefficient quantizes to zero, and two certificates settle
// those before any division. Before the transform: every basis product is
// at most ½·½, so |coef| ≤ ¼·Σ|res| (and |DC| = ⅛·|Σres| is at most half
// of that — ZeroAC/2 < ZeroDC, so the AC test covers it); a block below
// the bound is uncoded without being transformed. After it, coefficient by
// coefficient: a fast value below ZeroAC − delta (ZeroDC − delta at DC)
// bounds the exact one below the dead-zone edge, so its level is 0 and it
// is never offered to the guard band.
//
// Each surviving level goes straight to its dequantized coefficient slot,
// in place of the coefficient it came from (every other slot is set to
// zero on the way), with the row/column masks and the |level| sum the
// butterfly inverse needs — what a scan of the level array would find.
func quantizeResidual(res *[64]int32, sumAbs int64, t *qpTables, levels *[64]int32) uint64 {
	if float64(sumAbs)/4 < t.ZeroAC {
		return 0
	}
	var coefs [64]float64
	fdct8Lanes(res, &coefs)

	// Guard band: |fast − exact| is bounded by the summation-order error
	// of two butterfly passes, ≤ ~2⁻⁴⁸·Σ|res|; certEps leaves two orders
	// of magnitude of margin on top of that.
	delta := float64(sumAbs)*certEps + certFloor
	step, bias := t.Step, t.Bias
	dstep := delta / step

	var mask uint64
	var rowMask, colMask uint8
	var lvlSum int64
	if c := coefs[0]; math.Abs(c) < t.ZeroDC-delta {
		coefs[0] = 0
	} else {
		u := c / step
		// Round boundaries sit at half-integers; the division adds at
		// most a couple of ulps on top of delta.
		a := math.Abs(u)
		du := dstep + a*1e-14 + certFloor
		var l int32
		if math.Abs(a-float64(int64(a))-0.5) < du {
			transformFallbacks.Add(1)
			l = int32(math.Round(fdctCoefExact(res, 0) / step))
		} else {
			l = int32(math.Round(u))
		}
		coefs[0] = float64(l) * t.Deq[0]
		if l != 0 {
			levels[0] = l
			mask, rowMask, colMask = 1, 1, 1
			lvlSum = abs64(l)
		}
	}
	zeroAC := t.ZeroAC - delta
	for z := 1; z < 64; z++ {
		c := coefs[z]
		a := math.Abs(c)
		if a < zeroAC {
			coefs[z] = 0
			continue
		}
		// Dead-zone quantizer: bias magnitudes toward zero. Truncation
		// boundaries sit at integers of (|c|+bias)/step; the sign branch
		// is boundary-free because both branches yield 0 for |c| < step.
		u := (a + bias) / step
		du := dstep + u*1e-14 + certFloor
		frac := u - float64(int64(u))
		var l int32
		if frac < du || frac > 1-du {
			transformFallbacks.Add(1)
			ce := fdctCoefExact(res, z)
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
		if l == 0 {
			coefs[z] = 0
			continue
		}
		pos := unzigzag[z]
		levels[pos] = l
		mask |= 1 << pos
		coefs[z] = float64(l) * t.Deq[pos]
		rowMask |= 1 << uint(z>>3)
		colMask |= 1 << uint(z&7)
		lvlSum += abs64(l)
	}
	if mask != 0 {
		idct8Fast(&coefs, res, rowMask, colMask, float64(lvlSum)*t.Step*certEps+certFloor)
	}
	return mask
}

// abs64 is |v| without int32's overflow at math.MinInt32, a level the
// wire can carry.
func abs64(v int32) int64 {
	if v < 0 {
		return -int64(v)
	}
	return int64(v)
}
