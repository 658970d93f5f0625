package codec

import (
	"fmt"

	"repro/internal/video"
)

// Decoder decompresses access units produced by an Encoder with the same
// configuration. It is not safe for concurrent use.
//
// Output frames come from an internal FramePool: callers that are done
// with a frame may hand it back via Recycle so steady-state decoding
// allocates nothing (see TestDecodeSteadyStateAllocs). Frames that are
// kept simply never return to the pool.
type Decoder struct {
	cfg              Config
	refY, refU, refV *plane
	curY, curU, curV *plane
	haveRef          bool
	pool             *video.FramePool

	// tiles, when non-nil, switches the decoder to tile mode: each entry
	// is a self-contained sub-decoder for one tile rectangle (tile.go).
	tiles []tileDec
}

// NewDecoder returns a decoder for the given configuration. Only the
// dimensions and FPS fields are required to match the encoder.
func NewDecoder(cfg Config) (*Decoder, error) {
	c := cfg.withDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Tiled() {
		tiles, err := newTileDecs(c)
		if err != nil {
			return nil, err
		}
		return &Decoder{cfg: c, tiles: tiles}, nil
	}
	cw, ch := (c.Width+1)/2, (c.Height+1)/2
	return &Decoder{
		cfg:  c,
		refY: newPlane(c.Width, c.Height, 16),
		refU: newPlane(cw, ch, 8),
		refV: newPlane(cw, ch, 8),
		curY: newPlane(c.Width, c.Height, 16),
		curU: newPlane(cw, ch, 8),
		curV: newPlane(cw, ch, 8),
	}, nil
}

// reset clears reference state so a pooled decoder behaves like a
// freshly constructed one. Pixel planes need no clearing: keyframes
// rewrite every sample without reading the reference, and a P-frame
// before any keyframe is rejected by the haveRef guard.
func (d *Decoder) reset() {
	d.haveRef = false
	for i := range d.tiles {
		d.tiles[i].dec.reset()
	}
}

// Recycle returns a frame obtained from Decode to the decoder's pool.
// The caller must not use the frame afterwards.
func (d *Decoder) Recycle(f *video.Frame) {
	if d.pool != nil {
		d.pool.Put(f)
	}
}

// newFrame takes a frame from the pool (lazily created so decoders used
// once don't pay for pool bookkeeping).
func (d *Decoder) newFrame() *video.Frame {
	if d.pool == nil {
		d.pool = video.NewFramePool(d.cfg.Width, d.cfg.Height)
	}
	f := d.pool.Get()
	f.Index = 0
	return f
}

// Decode decompresses one access unit into a frame.
func (d *Decoder) Decode(data []byte) (*video.Frame, error) {
	if d.tiles != nil {
		return d.decodeTiled(data)
	}
	r := bitReader{buf: data}
	isKey, qp, err := readFrameHeader(&r)
	if err != nil {
		return nil, err
	}
	if !isKey && !d.haveRef {
		return nil, fmt.Errorf("codec: P-frame received before any keyframe")
	}

	t := tablesFor(qp)
	mbW := d.curY.w / 16
	mbH := d.curY.h / 16
	for my := 0; my < mbH; my++ {
		pmvx, pmvy := 0, 0
		for mx := 0; mx < mbW; mx++ {
			if isKey {
				if err := d.decodeIntraMB(&r, mx, my, t); err != nil {
					return nil, err
				}
			} else {
				pmvx, pmvy, err = d.decodeInterMB(&r, mx, my, t, pmvx, pmvy)
				if err != nil {
					return nil, err
				}
			}
		}
	}

	// Copy the reconstructed planes into a pooled frame and rotate
	// current → reference.
	f := d.newFrame()
	d.curY.storeTo(f.Y, f.W, f.H)
	d.curU.storeTo(f.U, f.ChromaW(), f.ChromaH())
	d.curV.storeTo(f.V, f.ChromaW(), f.ChromaH())

	d.refY, d.curY = d.curY, d.refY
	d.refU, d.curU = d.curU, d.refU
	d.refV, d.curV = d.curV, d.refV
	d.haveRef = true
	return f, nil
}

// readFrameHeader parses the 1-bit frame type and 6-bit QP field.
func readFrameHeader(r *bitReader) (isKey bool, qp int, err error) {
	ft, err := r.readBits(1)
	if err != nil {
		return false, 0, err
	}
	qpBits, err := r.readBits(6)
	if err != nil {
		return false, 0, err
	}
	return ft == 0, int(qpBits), nil
}

func (d *Decoder) decodeIntraMB(r *bitReader, mx, my int, t *qpTables) error {
	var res [64]int32
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			coded, err := decodeResidual(r, t, &res)
			if err != nil {
				return err
			}
			storeIntra(d.curY, mx*16+bx*8, my*16+by*8, &res, coded)
		}
	}
	for _, p := range [2]*plane{d.curU, d.curV} {
		coded, err := decodeResidual(r, t, &res)
		if err != nil {
			return err
		}
		storeIntra(p, mx*8, my*8, &res, coded)
	}
	return nil
}

func (d *Decoder) decodeInterMB(r *bitReader, mx, my int, t *qpTables, pmvx, pmvy int) (int, int, error) {
	skip, err := r.readBits(1)
	if err != nil {
		return 0, 0, err
	}
	cx, cy := mx*16, my*16
	if skip == 1 {
		copyMB(d.curY, d.refY, cx, cy, 16, 0, 0)
		copyMB(d.curU, d.refU, mx*8, my*8, 8, 0, 0)
		copyMB(d.curV, d.refV, mx*8, my*8, 8, 0, 0)
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

	var res [64]int32
	for by := 0; by < 2; by++ {
		for bx := 0; bx < 2; bx++ {
			coded, err := decodeResidual(r, t, &res)
			if err != nil {
				return 0, 0, err
			}
			storeInter(d.curY, d.refY, cx+bx*8, cy+by*8, mvx, mvy, &res, coded)
		}
	}
	cmvx, cmvy := mvx/2, mvy/2
	for _, pp := range [2]struct{ cur, ref *plane }{{d.curU, d.refU}, {d.curV, d.refV}} {
		coded, err := decodeResidual(r, t, &res)
		if err != nil {
			return 0, 0, err
		}
		storeInter(pp.cur, pp.ref, mx*8, my*8, cmvx, cmvy, &res, coded)
	}
	return mvx, mvy, nil
}

// decodeResidual reads one entropy-coded block and inverse-transforms it
// into res, reporting whether the block was coded (res is untouched for
// an uncoded block — callers skip the residual entirely). It is
// decodeBlock and dequantizeBlock in one pass: each level goes straight
// to its dequantized coefficient slot, with the row/column masks the
// inverse skips by gathered on the way, so no level array is filled,
// cleared or scanned. The syntax checks are decodeBlock's, at the same
// bit positions.
func decodeResidual(r *bitReader, t *qpTables, res *[64]int32) (bool, error) {
	coded, err := r.readBits(1)
	if err != nil {
		return false, err
	}
	if coded == 0 {
		return false, nil
	}
	var coefs [64]int32
	var rowMask, colMask uint8
	dc, err := r.readSE()
	if err != nil {
		return false, err
	}
	if dc != 0 {
		if coefs[0], err = dequantize(dc, t, 0); err != nil {
			return false, err
		}
		rowMask, colMask = 1, 1
	}
	nAC, err := r.readUE()
	if err != nil {
		return false, err
	}
	if nAC > 63 {
		return false, fmt.Errorf("codec: invalid AC coefficient count %d", nAC)
	}
	pos := 1
	for i := uint32(0); i < nAC; i++ {
		run, lvl, err := r.readPair()
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
		z := zigzag[pos]
		if coefs[z], err = dequantize(lvl, t, z); err != nil {
			return false, err
		}
		rowMask |= 1 << uint(z>>3)
		colMask |= 1 << uint(z&7)
		pos++
	}
	if rowMask == 0 {
		*res = [64]int32{}
		return true, nil
	}
	idct8(&coefs, res, rowMask, colMask)
	return true, nil
}

// dequantize is level l's coefficient at raster position z, or the syntax
// error of a level the inverse transform has no room for.
func dequantize(l int32, t *qpTables, z int) (int32, error) {
	c := int64(l) * int64(t.Deq[z])
	if c > coefLimit || c < -coefLimit {
		return 0, fmt.Errorf("codec: level %d out of range", l)
	}
	return int32(c), nil
}
