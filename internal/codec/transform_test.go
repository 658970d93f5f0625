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

// Reference forms of the block path, spelled plainly: each fast path —
// quantizeResidual's mask, emitBlock, decodeResidual, idct8's skips and
// shortcuts, fdct8's SSE2 twin, writeUE — must reproduce these exactly on
// every input.

// basis8 is the integer transform's matrix, times 8: fdct1d computes
// basis8·p/8 and idct1d basis8ᵀ·d/8, exactly when no shift drops a bit.
var basis8 = [8][8]int32{
	{8, 8, 8, 8, 8, 8, 8, 8},
	{12, 10, 6, 3, -3, -6, -10, -12},
	{8, 4, -4, -8, -8, -4, 4, 8},
	{10, -3, -12, -6, 6, 12, 3, -10},
	{8, -8, -8, 8, 8, -8, -8, 8},
	{6, -12, 3, 10, -10, -3, 12, -6},
	{4, -8, 8, -4, -4, 8, -8, 4},
	{3, -6, 10, -12, 12, -10, 6, -3},
}

// quantizeBlock is the quantizer as an array form: fdct8Generic, then each
// zigzag position in turn, in int64. The quantized levels are written in
// zigzag order. Returns true if any level is nonzero.
func quantizeBlock(res *[64]int32, qp int, levels *[64]int32) bool {
	t := tablesFor(qp)
	var coefs [64]int32
	fdct8Generic(res, &coefs)
	nz := false
	for i := range levels {
		z := zigzag[i]
		c := int64(coefs[z])
		l := (max(c, -c)*int64(t.Quant[z]) + int64(t.Round[z])) >> t.Shift
		if c < 0 {
			l = -l
		}
		levels[i] = int32(l)
		nz = nz || l != 0
	}
	return nz
}

// dequantizeBlock inverts quantizeBlock: every level to its coefficient,
// then the Go twin's passes over every row and column.
func dequantizeBlock(levels *[64]int32, qp int, res *[64]int32) {
	t := tablesFor(qp)
	var c [64]int32
	for i, l := range levels {
		c[zigzag[i]] = l * t.Deq[zigzag[i]]
	}
	idct8Generic(&c, res, 0xFF)
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

// decodeBlock is the decoder's block parser as an array form: the syntax,
// its four errors and the bit positions they are raised at, reading one
// entropy-coded block into zigzag-ordered levels and reporting whether the
// block was coded. Uncoded blocks leave levels untouched — callers skip
// the transform entirely for them.
func decodeBlock(r *bitReader, qp int, levels *[64]int32) (bool, error) {
	coded, err := r.readBits(1)
	if err != nil {
		return false, err
	}
	if coded == 0 {
		return false, nil
	}
	*levels = [64]int32{}
	inRange := func(l int32, pos int) error {
		if c := int64(l) * int64(tablesFor(qp).Deq[zigzag[pos]]); c > coefLimit || c < -coefLimit {
			return fmt.Errorf("codec: level %d out of range", l)
		}
		return nil
	}
	dc, err := r.readSE()
	if err != nil {
		return false, err
	}
	if err := inRange(dc, 0); err != nil {
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
		if err := inRange(lvl, pos); err != nil {
			return false, err
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
// input space plus adversarial shapes: impulses (single-coefficient
// energy), constants at the sample extremes, a checkerboard (all energy in
// the highest frequency), and seeded random blocks at intra ([-128, 127])
// and inter ([-255, 255]) ranges.
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

// TestQuantizeBlockEquivalence pins the mask quantizer: for every test
// block and QP, levels and the coded flag must match the array form.
func TestQuantizeBlockEquivalence(t *testing.T) {
	for bi, blk := range transformTestBlocks() {
		for _, qp := range transformTestQPs {
			if qp > qpMax {
				continue // encoder-side QP never exceeds qpMax
			}
			b := blk
			var got, want [64]int32
			gotNZ := maskQuantize(&b, qp, &got)
			wantNZ := quantizeBlock(&b, qp, &want)
			if got != want || gotNZ != wantNZ {
				t.Fatalf("block %d qp %d: mask quantizer diverges from the array form", bi, qp)
			}
		}
	}
}

// TestDequantizeBlockEquivalence pins idct8's skipped rows and its DC and
// top-row shortcuts against the full passes across the full wire QP range,
// feeding it the levels real encodes produce.
func TestDequantizeBlockEquivalence(t *testing.T) {
	for bi, blk := range transformTestBlocks() {
		for _, qp := range transformTestQPs {
			b := blk
			var levels [64]int32
			quantizeBlock(&b, min(qp, qpMax), &levels)
			var got, want [64]int32
			if !idct8Levels(&levels, qp, &got) {
				continue
			}
			dequantizeBlock(&levels, qp, &want)
			if got != want {
				t.Fatalf("block %d qp %d: idct8 diverges from the full passes", bi, qp)
			}
		}
	}
}

// idct8Levels is idct8 on zigzag levels, with the masks decodeResidual
// gathers; false for a block that has no level or one out of range.
func idct8Levels(levels *[64]int32, qp int, res *[64]int32) bool {
	t := tablesFor(qp)
	var c [64]int32
	var rowMask, colMask uint8
	for i, l := range levels {
		if l == 0 {
			continue
		}
		z := zigzag[i]
		d := int64(l) * int64(t.Deq[z])
		if d > coefLimit || d < -coefLimit {
			return false
		}
		c[z] = int32(d)
		rowMask |= 1 << uint(z>>3)
		colMask |= 1 << uint(z&7)
	}
	if rowMask == 0 {
		return false
	}
	idct8(&c, res, rowMask, colMask)
	return true
}

// TestButterfly1DMatchesBasis holds the 1-D passes to the transform's
// matrix where no shift drops a bit (every input a multiple of 8), and
// the quantizer's norms to the matrix: its rows are orthogonal, and each
// position's classNorm2 is the product of its two rows' squared norms.
func TestButterfly1DMatchesBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		var in [8]int32
		for i := range in {
			in[i] = 8 * (int32(rng.Intn(4097)) - 2048)
		}
		var f, inv [8]int32
		f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7] = fdct1d(in[0], in[1], in[2], in[3], in[4], in[5], in[6], in[7])
		inv[0], inv[1], inv[2], inv[3], inv[4], inv[5], inv[6], inv[7] = idct1d(in[0], in[1], in[2], in[3], in[4], in[5], in[6], in[7])
		for k := 0; k < 8; k++ {
			var fs, is int32
			for n := 0; n < 8; n++ {
				fs += basis8[k][n] * in[n] / 8
				is += basis8[n][k] * in[n] / 8
			}
			if fs != f[k] || is != inv[k] {
				t.Fatalf("trial %d k=%d: fdct1d %d (matrix %d), idct1d %d (matrix %d)", trial, k, f[k], fs, inv[k], is)
			}
		}
	}
	var norm2 [8]int64
	for k := range basis8 {
		for j := range basis8 {
			var dot int64
			for n := 0; n < 8; n++ {
				dot += int64(basis8[k][n]) * int64(basis8[j][n])
			}
			if j == k {
				norm2[k] = dot
			} else if dot != 0 {
				t.Fatalf("rows %d and %d are not orthogonal (dot %d)", k, j, dot)
			}
		}
	}
	for z := 0; z < 64; z++ {
		if got, want := classNorm2[posClass(z>>3, z&7)], norm2[z>>3]*norm2[z&7]; got != want {
			t.Fatalf("position %d: classNorm2 %d, the rows' norms give %d", z, got, want)
		}
	}
}

// refDecoder is Decoder.Decode for untiled streams in the array forms:
// decodeBlock into a level array, then dequantizeBlock. Its errors are
// the reference parser's errors and its frames the codec's definition of
// a decode.
type refDecoder struct {
	w, h             int
	refY, refU, refV *plane
	curY, curU, curV *plane
	haveRef          bool
	nonZeroMVs       int // coded macroblocks with a non-zero vector, all frames
	// parseOnly walks the syntax without reconstructing: enough for the
	// verdict on a unit that cannot parse. Decode then returns (nil, nil)
	// on success and leaves the reference planes alone.
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

// block parses one block and, unless parseOnly, reconstructs it into res.
func (d *refDecoder) block(r *bitReader, qp int, res *[64]int32) (bool, error) {
	var levels [64]int32
	coded, err := decodeBlock(r, qp, &levels)
	if err == nil && coded && !d.parseOnly {
		dequantizeBlock(&levels, qp, res)
	}
	return coded, err
}

func (d *refDecoder) decodeIntraMB(r *bitReader, mx, my, qp int) error {
	var res [64]int32
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			coded, err := d.block(r, qp, &res)
			if err != nil {
				return err
			}
			if !d.parseOnly {
				storeIntra(d.curY, mx*16+bx*8, my*16+by*8, &res, coded)
			}
		}
	}
	for _, p := range [2]*plane{d.curU, d.curV} {
		coded, err := d.block(r, qp, &res)
		if err != nil {
			return err
		}
		if !d.parseOnly {
			storeIntra(p, mx*8, my*8, &res, coded)
		}
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
	var res [64]int32
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			coded, err := d.block(r, qp, &res)
			if err != nil {
				return 0, 0, err
			}
			if !d.parseOnly {
				storeInter(d.curY, d.refY, cx+bx*8, cy+by*8, mvx, mvy, &res, coded)
			}
		}
	}
	cmvx, cmvy := mvx/2, mvy/2
	for _, pp := range [2]struct{ cur, ref *plane }{{d.curU, d.refU}, {d.curV, d.refV}} {
		coded, err := d.block(r, qp, &res)
		if err != nil {
			return 0, 0, err
		}
		if !d.parseOnly {
			storeInter(pp.cur, pp.ref, mx*8, my*8, cmvx, cmvy, &res, coded)
		}
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

// readerAt is a bit reader's position, the number of bits it has
// consumed: two readers over one buffer that agree on it stand at the
// same bit, however their refills were timed.
func readerAt(r *bitReader) int { return r.pos*8 - int(r.nAcc) }

// residualTestBlocks yields zigzag-ordered level blocks for the fused
// residual decode: the shapes its shortcuts key on (DC-only, a single AC
// at every position, energy confined to the 4×4 low-frequency corner or
// to the top coefficient row, dense), levels at the edge of the range the
// inverse accepts and the extremes the wire can carry, a coded block with
// no level at all, and seeded random blocks from sparse to full.
func residualTestBlocks(rng *rand.Rand) [][64]int32 {
	var blocks [][64]int32
	blocks = append(blocks, [64]int32{}) // coded, yet every level zero
	for _, dc := range []int32{1, -1, 2, -2, 3, 4, 5, -6, 7, 12, 20, -36, 100, -128, 1000, 1 << 14, 52428, -52429, 1 << 16, math.MaxInt32, math.MinInt32, math.MinInt32 + 1} {
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
		var corner, top, dense, extreme [64]int32
		for i := range dense {
			z := zigzag[i]
			if z>>3 < 4 && z&7 < 4 {
				corner[i] = int32(rng.Intn(61)) - 30
			}
			if z < 8 {
				top[i] = int32(rng.Intn(401)) - 200
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
		blocks = append(blocks, corner, top, dense, extreme)
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
// decodeBlock → dequantizeBlock at every QP the wire can carry: the same
// coded flag or the same error, the reader left at the same bit, and the
// same samples.
func TestDecodeResidualMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	blocks := residualTestBlocks(rng)
	decoded, rejected := 0, 0
	for qp := 0; qp <= qpFieldMax; qp++ {
		for bi := range blocks {
			w := &bitWriter{}
			writeLevels(w, &blocks[bi])
			w.writeBits(0x2A5, 10) // what follows the block must stay unread
			data := w.bytes()

			rr := bitReader{buf: data}
			var levels, want [64]int32
			coded, wantErr := decodeBlock(&rr, qp, &levels)
			if wantErr == nil && (!coded || levels != blocks[bi]) {
				t.Fatalf("block %d: reference parse = %v, levels match %v", bi, coded, levels == blocks[bi])
			}

			fr := bitReader{buf: data}
			got := [64]int32{0: 77, 63: -77} // decodeResidual must write every sample
			gotCoded, gotErr := decodeResidual(&fr, tablesFor(qp), &got)
			if errString(gotErr) != errString(wantErr) || gotCoded != coded {
				t.Fatalf("block %d qp %d: decodeResidual = %v, %q; reference %v, %q", bi, qp, gotCoded, errString(gotErr), coded, errString(wantErr))
			}
			if wantErr != nil {
				rejected++
				continue
			}
			decoded++
			if readerAt(&fr) != readerAt(&rr) {
				t.Fatalf("block %d qp %d: fused reader stopped at %+v, reference at %+v", bi, qp, readerAt(&fr), readerAt(&rr))
			}
			if dequantizeBlock(&levels, qp, &want); got != want {
				t.Fatalf("block %d qp %d: fused residual diverges from the array form", bi, qp)
			}
		}
	}
	if decoded == 0 || rejected == 0 {
		t.Fatalf("%d blocks decoded, %d rejected: the corpus misses one side of the level range", decoded, rejected)
	}
}

// TestIDCTHalfIntegers aims blocks at the rounding boundary itself, a
// sample of n + ½ (x = 256n + 128 before the final shift) and one either
// side of it: DC-only blocks, which idct8 fills with one value, and
// top-row blocks, which it fills a column at a time, must give the full
// passes' samples, rounded half up.
func TestIDCTHalfIntegers(t *testing.T) {
	for _, n := range []int32{0, 1, -1, 2, -3, 127, -128, 255, -256, 2047, -2048} {
		for d := int32(-2); d <= 2; d++ {
			c := 256*n + 128 + d
			var src [64]int32
			src[0] = c
			var got, want [64]int32
			idct8(&src, &got, 1, 1)
			idct8Generic(&src, &want, 0xFF)
			if got != want || got[0] != (c+128)>>8 {
				t.Fatalf("DC %d: idct8 %d, full passes %d, want %d", c, got[0], want[0], (c+128)>>8)
			}
			for j := 1; j < 8; j++ {
				src[j] = 8 * (c + int32(j)) // a top row whose samples cross the boundary
				idct8(&src, &got, 1, uint8(1<<uint(j+1)-1))
				idct8Generic(&src, &want, 0xFF)
				if got != want {
					t.Fatalf("top row %v: idct8 %v, full passes %v", src[:8], got, want)
				}
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
			video.PutFrame(got)
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

	// Block syntax at QP 24, where a level dequantizes by 320 at the DC and
	// by 304 at zigzag position 1, so the largest levels the inverse
	// accepts there are 3276 and 3449: each script is the symbols after the
	// coded flag.
	type sym struct {
		kind byte // 'u' readUE, 's' readSE, 'z' n zero bits
		v    int64
	}
	scripts := map[string][]sym{
		"count 64":               {{'s', 5}, {'u', 64}},
		"count 2^32-2":           {{'s', 5}, {'u', 1<<32 - 2}},
		"run past the block":     {{'s', 0}, {'u', 2}, {'u', 10}, {'s', 3}, {'u', 52}, {'s', -1}},
		"run to position 64":     {{'s', 1}, {'u', 1}, {'u', 63}, {'s', 1}},
		"huge run":               {{'s', 1}, {'u', 1}, {'u', 1<<32 - 2}, {'s', 1}},
		"zero level":             {{'s', -4}, {'u', 3}, {'u', 0}, {'s', 9}, {'u', 5}, {'s', 0}, {'u', 0}, {'s', 1}},
		"zero level past 64":     {{'s', 1}, {'u', 1}, {'u', 70}, {'s', 0}},
		"DC out of range":        {{'s', 3277}, {'u', 0}},
		"DC at the limit":        {{'s', -3276}, {'u', 0}},
		"AC out of range":        {{'s', 2}, {'u', 2}, {'u', 0}, {'s', -3450}, {'u', 0}, {'s', 1}},
		"AC at the limit":        {{'s', 2}, {'u', 1}, {'u', 0}, {'s', 3449}},
		"MinInt32 AC":            {{'s', 2}, {'u', 1}, {'u', 0}, {'s', math.MinInt32 + 1}},
		"out of range, then bad": {{'s', 2}, {'u', 2}, {'u', 0}, {'s', 9000}, {'u', 70}, {'s', 1}},
		"invalid code in DC":     {{'z', 40}},
		"invalid code in count":  {{'s', 2}, {'z', 33}},
		"invalid code in run":    {{'s', 2}, {'u', 2}, {'z', 48}},
		"invalid code in level":  {{'s', 2}, {'u', 2}, {'u', 1}, {'z', 64}},
		"ends in DC":             {{'z', 3}},
		"ends in count":          {{'s', 2}, {'z', 5}},
		"ends in run":            {{'s', 2}, {'u', 1}, {'z', 2}},
		"ends in level":          {{'s', 2}, {'u', 1}, {'u', 0}, {'z', 7}},
		"ends after a pair":      {{'s', 2}, {'u', 2}, {'u', 0}, {'s', 300}},
		"well formed":            {{'s', 2}, {'u', 2}, {'u', 0}, {'s', 300}, {'u', 61}, {'s', -1}},
	}
	wellFormed := map[string]bool{"well formed": true, "DC at the limit": true, "AC at the limit": true}
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
		wantCoded, wantErr := decodeBlock(&rr, 24, &levels)
		gotCoded, gotErr := decodeResidual(&fr, tablesFor(24), &res)
		if gotCoded != wantCoded || errString(gotErr) != errString(wantErr) || readerAt(&fr) != readerAt(&rr) {
			t.Errorf("%s: decodeResidual = %v, %q at %v; decodeBlock = %v, %q at %v",
				name, gotCoded, errString(gotErr), readerAt(&fr), wantCoded, errString(wantErr), readerAt(&rr))
		}
		if (wantErr == nil) != wellFormed[name] {
			t.Errorf("%s: reference parser returned %q", name, errString(wantErr))
		}
	}
}

func sameFrame(a, b *video.Frame) bool {
	return a.W == b.W && a.H == b.H && regionEqual(a, b, TileRect{W: a.W, H: a.H})
}
