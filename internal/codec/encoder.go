package codec

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/parallel"
	"repro/internal/video"
)

// Preset selects a codec flavor. The two presets mirror the codecs the
// Visual Road paper supports: the HEVC preset searches a wider motion
// range and quantizes one step finer, trading encode time for better
// rate/distortion — the qualitative relationship between real H.264 and
// HEVC encoders.
type Preset struct {
	Name        string
	ID          uint8
	SearchRange int // full-pel motion search range (± pixels)
	QPBias      int // added to the operating QP (negative = finer)
}

// The available codec presets.
var (
	PresetH264 = Preset{Name: "h264", ID: 1, SearchRange: 8, QPBias: 0}
	PresetHEVC = Preset{Name: "hevc", ID: 2, SearchRange: 16, QPBias: -2}
)

// PresetByID returns the preset with the given wire ID.
func PresetByID(id uint8) (Preset, error) {
	switch id {
	case PresetH264.ID:
		return PresetH264, nil
	case PresetHEVC.ID:
		return PresetHEVC, nil
	}
	return Preset{}, fmt.Errorf("codec: unknown preset id %d", id)
}

// PresetByName returns the preset with the given name ("h264" or "hevc").
func PresetByName(name string) (Preset, error) {
	switch name {
	case PresetH264.Name:
		return PresetH264, nil
	case PresetHEVC.Name:
		return PresetHEVC, nil
	}
	return Preset{}, fmt.Errorf("codec: unknown preset %q", name)
}

// Config parameterizes an encoder or decoder instance.
type Config struct {
	Width, Height int
	FPS           int
	Preset        Preset
	// QP is the constant quantization parameter used when BitrateKbps
	// is zero. Lower is higher quality; 0–51.
	QP int
	// BitrateKbps, when nonzero, enables the rate controller, which
	// adjusts QP per frame to track the target bitrate.
	BitrateKbps int
	// GOP is the keyframe interval in frames (default 30).
	GOP int
	// Workers bounds the row-parallel analysis pass (motion estimation,
	// transform, quantization, reconstruction): macroblock rows are
	// independent, so values > 1 spread them across a worker pool while
	// the serial entropy pass keeps the bitstream bit-identical to a
	// Workers=1 encode. Workers is an execution knob, not a property of
	// the stream — it is cleared from the encoder's effective Config so
	// container metadata and config comparisons are unaffected.
	Workers int
	// TileRows and TileCols, when the product exceeds 1, split every
	// frame into a grid of independently decodable tiles (motion and
	// prediction confined within tile boundaries, per-tile entropy
	// payloads) so spatially selective queries can decode only the tiles
	// an ROI touches — see tile.go. Zero means 1; the 1x1 default is
	// bit-identical to the pre-tile encoder.
	TileRows, TileCols int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.GOP <= 0 {
		out.GOP = 30
	}
	if out.FPS <= 0 {
		out.FPS = 30
	}
	if out.Preset.ID == 0 {
		out.Preset = PresetH264
	}
	if out.QP == 0 && out.BitrateKbps == 0 {
		out.QP = 24
	}
	if out.TileRows <= 1 && out.TileCols <= 1 {
		// An explicit 1x1 grid is the untiled default; normalizing keeps
		// container round-trips and config comparisons exact.
		out.TileRows, out.TileCols = 0, 0
	}
	return out
}

// Validate reports whether the configuration is usable.
func (c *Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("codec: invalid dimensions %dx%d", c.Width, c.Height)
	}
	if c.QP < qpMin || c.QP > qpMax {
		return fmt.Errorf("codec: QP %d outside [%d, %d]", c.QP, qpMin, qpMax)
	}
	return c.validateTiles()
}

// EncodedFrame is one compressed access unit.
type EncodedFrame struct {
	Data     []byte
	Keyframe bool
}

// Encoder compresses a frame sequence. It is not safe for concurrent
// use by multiple goroutines, but internally parallelizes the analysis
// pass across macroblock rows when configured with Workers > 1.
//
// An encoder's planes and scratch come from a pool (encpool.go); Release
// hands them back when the stream is complete. One that is never
// released is simply collected.
type Encoder struct {
	cfg     Config
	workers int

	// The pooled state: reference and current planes, per-macroblock
	// analysis scratch, bitstream scratch. Nil in tile mode (each tile's
	// sub-encoder holds its own) and after Release.
	*encState

	frameIdx int
	rc       rateControl
	released bool

	// tiles, when non-nil, switches the encoder to tile mode: each entry
	// is a self-contained sub-encoder for one tile rectangle (tile.go).
	tiles []tileCoder
}

// mbCode is the analysis result for one macroblock: the mode decision,
// motion vector, and quantized levels of its six 8×8 blocks (4 luma,
// U, V), produced by the — possibly row-parallel — analysis pass and
// consumed by the serial entropy pass. mask[b] is block b's nonzero mask
// (bit i = zigzag position i; the block is coded iff it is nonzero) and
// levels[b] is defined at its set bits only: the other entries hold
// whatever an earlier block, frame or stream left there.
type mbCode struct {
	skip     bool
	mvx, mvy int
	mask     [6]uint64
	levels   [6][64]int32
}

// NewEncoder returns an encoder for the given configuration.
func NewEncoder(cfg Config) (*Encoder, error) {
	c := cfg.withDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	workers := c.Workers
	if workers < 1 {
		workers = 1
	}
	c.Workers = 0 // execution knob, not part of the stream description
	if c.Tiled() {
		tiles, err := newTileCoders(c)
		if err != nil {
			return nil, err
		}
		return &Encoder{cfg: c, workers: workers, tiles: tiles}, nil
	}
	return &Encoder{cfg: c, workers: workers, encState: getEncState(c.Width, c.Height), rc: newRateControl(c)}, nil
}

// Release hands the encoder's planes and scratch back to the pool for
// the next encoder of the same padded size. The stream is over: Encode
// fails afterwards. Releasing twice is harmless.
func (e *Encoder) Release() {
	e.released = true
	for i := range e.tiles {
		e.tiles[i].enc.Release()
	}
	if e.encState != nil {
		putEncState(e.encState)
		e.encState = nil
	}
}

// Config returns the encoder's effective configuration.
func (e *Encoder) Config() Config { return e.cfg }

// Encode compresses the next frame and returns its access unit. The
// frame dimensions must match the configuration.
func (e *Encoder) Encode(f *video.Frame) (EncodedFrame, error) {
	if e.released {
		return EncodedFrame{}, errors.New("codec: Encode on a released encoder")
	}
	if e.tiles != nil {
		return e.encodeTiled(f)
	}
	if f.W != e.cfg.Width || f.H != e.cfg.Height {
		return EncodedFrame{}, fmt.Errorf("codec: frame is %dx%d, encoder configured for %dx%d",
			f.W, f.H, e.cfg.Width, e.cfg.Height)
	}
	isKey := e.frameIdx%e.cfg.GOP == 0
	qp := e.rc.frameQP(isKey) + e.cfg.Preset.QPBias
	if qp < qpMin {
		qp = qpMin
	}
	if qp > qpMax {
		qp = qpMax
	}

	e.curY.loadFrom(f.Y, f.W, f.H)
	e.curU.loadFrom(f.U, f.ChromaW(), f.ChromaH())
	e.curV.loadFrom(f.V, f.ChromaW(), f.ChromaH())

	mbW := e.curY.w / 16
	mbH := e.curY.h / 16

	// Analysis pass: per-macroblock mode decisions, motion vectors,
	// quantized levels, and reference reconstruction. Macroblock rows
	// touch disjoint plane regions (each MB reads and reconstructs only
	// its own 16×16 block of the current planes and reads the immutable
	// reference planes), and the motion-vector predictor chain resets at
	// each row start — so rows are independent and run on the worker
	// pool. Results are deterministic at any worker count. A P-frame's
	// motion search reads the edge-extended copy of the luma reference,
	// rebuilt here, before the rows start, and only read by them.
	if !isKey {
		e.extY.extend(e.refY, e.cfg.Preset.SearchRange)
	}
	if e.workers > 1 && mbH > 1 {
		err := parallel.ForEach(e.workers, mbH, func(my int) error {
			e.analyzeRow(my, isKey, qp)
			return nil
		})
		if err != nil {
			return EncodedFrame{}, err
		}
	} else {
		for my := 0; my < mbH; my++ {
			e.analyzeRow(my, isKey, qp)
		}
	}

	// Entropy pass: strictly serial bit-writing over the analysis
	// results, in raster order — the bitstream is identical to a fully
	// sequential encode.
	w := &bitWriter{buf: e.wbuf[:0]}
	if isKey {
		w.writeBits(0, 1)
	} else {
		w.writeBits(1, 1)
	}
	w.writeBits(uint32(qp), 6)
	for my := 0; my < mbH; my++ {
		pmvx, pmvy := 0, 0 // predicted MV: previous macroblock's coded vector
		for mx := 0; mx < mbW; mx++ {
			mb := &e.mbs[my*mbW+mx]
			switch {
			case isKey:
				for bi := range mb.mask {
					emitBlock(w, &mb.levels[bi], mb.mask[bi])
				}
			case mb.skip:
				w.writeBits(1, 1) // skip flag
				pmvx, pmvy = 0, 0
			default:
				w.writeBits(0, 1) // not skipped
				w.writeSE(int32(mb.mvx - pmvx))
				w.writeSE(int32(mb.mvy - pmvy))
				for bi := range mb.mask {
					emitBlock(w, &mb.levels[bi], mb.mask[bi])
				}
				pmvx, pmvy = mb.mvx, mb.mvy
			}
		}
	}

	bs := w.bytes()
	data := make([]byte, len(bs))
	copy(data, bs)
	e.wbuf = bs[:0] // keep the grown scratch for the next frame
	e.rc.update(len(data) * 8)
	e.frameIdx++
	// The reconstructed current planes become the reference.
	e.refY, e.curY = e.curY, e.refY
	e.refU, e.curU = e.curU, e.refU
	e.refV, e.curV = e.curV, e.refV
	return EncodedFrame{Data: data, Keyframe: isKey}, nil
}

// analyzeRow analyzes macroblock row my of the current frame.
func (e *Encoder) analyzeRow(my int, isKey bool, qp int) {
	if isKey {
		e.analyzeIntraRow(my, qp)
	} else {
		e.analyzeInterRow(my, qp)
	}
}

// analyzeIntraRow analyzes macroblock row my of a keyframe: the four
// 8×8 luma blocks and one 8×8 block per chroma plane are transformed
// directly (samples biased by -128 so the DC is small), quantized into
// the row's mbCode entries, and reconstructed in place as reference
// data. Intra macroblocks have no cross-block prediction, so the whole
// row touches only its own plane region.
func (e *Encoder) analyzeIntraRow(my, qp int) {
	mbW := e.curY.w / 16
	t := tablesFor(qp)
	var res [64]int32
	for mx := 0; mx < mbW; mx++ {
		mb := &e.mbs[my*mbW+mx]
		bi := 0
		// Luma: 4 blocks.
		for by := 0; by < 2; by++ {
			for bx := 0; bx < 2; bx++ {
				x0, y0 := mx*16+bx*8, my*16+by*8
				sum := extractIntra(e.curY, x0, y0, &res)
				mb.mask[bi] = quantizeResidual(&res, sum, t, &mb.levels[bi])
				storeIntra(e.curY, x0, y0, &res, mb.mask[bi] != 0)
				bi++
			}
		}
		// Chroma.
		for _, p := range [2]*plane{e.curU, e.curV} {
			x0, y0 := mx*8, my*8
			sum := extractIntra(p, x0, y0, &res)
			mb.mask[bi] = quantizeResidual(&res, sum, t, &mb.levels[bi])
			storeIntra(p, x0, y0, &res, mb.mask[bi] != 0)
			bi++
		}
	}
}

// analyzeInterRow analyzes macroblock row my of a P-frame: motion
// search against the reference planes, the skip decision, residual
// transform/quantization, and in-place reconstruction. The predictor
// chain (each search is seeded at the previous macroblock's coded
// vector) runs left to right within the row and resets at the row
// start, exactly as the serial encoder orders it.
func (e *Encoder) analyzeInterRow(my, qp int) {
	mbW := e.curY.w / 16
	t := tablesFor(qp)
	var res [64]int32
	pmvx, pmvy := 0, 0
	for mx := 0; mx < mbW; mx++ {
		mb := &e.mbs[my*mbW+mx]
		cx, cy := mx*16, my*16
		mvx, mvy, sad := motionSearch(e.curY, &e.extY, cx, cy, e.cfg.Preset.SearchRange, pmvx, pmvy)

		// Skip decision: zero vector and near-zero residual energy.
		if mvx == 0 && mvy == 0 && sad < 16*16/2 {
			// Cheap check on chroma before committing to skip.
			co := my*8*e.curU.w + mx*8
			cs := sad8(e.curU.pix[co:], e.curU.w, e.refU.pix[co:], e.refU.w, 1<<30) +
				sad8(e.curV.pix[co:], e.curV.w, e.refV.pix[co:], e.refV.w, 1<<30)
			if cs < 8*8/2 {
				mb.skip = true
				copyMB(e.curY, e.refY, cx, cy, 16, 0, 0)
				copyMB(e.curU, e.refU, mx*8, my*8, 8, 0, 0)
				copyMB(e.curV, e.refV, mx*8, my*8, 8, 0, 0)
				pmvx, pmvy = 0, 0
				continue
			}
		}
		mb.skip = false
		mb.mvx, mb.mvy = mvx, mvy
		bi := 0
		// Luma residual blocks.
		for by := 0; by < 2; by++ {
			for bx := 0; bx < 2; bx++ {
				x0, y0 := cx+bx*8, cy+by*8
				sum := extractInter(e.curY, e.refY, x0, y0, mvx, mvy, &res)
				mb.mask[bi] = quantizeResidual(&res, sum, t, &mb.levels[bi])
				storeInter(e.curY, e.refY, x0, y0, mvx, mvy, &res, mb.mask[bi] != 0)
				bi++
			}
		}
		// Chroma residual blocks (half-resolution vector).
		cmvx, cmvy := mvx/2, mvy/2
		for _, pp := range [2]struct{ cur, ref *plane }{{e.curU, e.refU}, {e.curV, e.refV}} {
			x0, y0 := mx*8, my*8
			sum := extractInter(pp.cur, pp.ref, x0, y0, cmvx, cmvy, &res)
			mb.mask[bi] = quantizeResidual(&res, sum, t, &mb.levels[bi])
			storeInter(pp.cur, pp.ref, x0, y0, cmvx, cmvy, &res, mb.mask[bi] != 0)
			bi++
		}
		pmvx, pmvy = mvx, mvy
	}
}

// bias128 is a row of the intra bias: at stride 0, an 8×8 block of 128s.
var bias128 = [8]byte{128, 128, 128, 128, 128, 128, 128, 128}

// extractIntra loads the 8×8 block at (x0, y0) biased by -128 and
// returns Σ|res|, the quantizer's pre-transform bound: one residual8 call
// against the bias block.
func extractIntra(p *plane, x0, y0 int, res *[64]int32) (sumAbs int64) {
	return residual8(p.pix[y0*p.w+x0:], p.w, bias128[:], 0, res)
}

// storeIntra writes the intra residual res plus the 128 bias into the
// plane, one addClamp8 call against the bias block. An uncoded block has
// an all-zero residual, so it is the bias block itself and res is not
// read.
func storeIntra(p *plane, x0, y0 int, res *[64]int32, coded bool) {
	dst := p.pix[y0*p.w+x0:]
	if !coded {
		copy8(dst, p.w, bias128[:], 0)
		return
	}
	addClamp8(dst, p.w, bias128[:], 0, res)
}

// extractInter loads the motion-compensated residual for the 8×8 block
// at (x0, y0) with motion vector (mvx, mvy) and returns Σ|res|, the
// quantizer's pre-transform bound. Interior predictions (the common
// case) are one residual8 call, which takes the sum as the block's SAD;
// blocks whose prediction crosses the plane edge take the clamped
// per-sample path.
func extractInter(cur, ref *plane, x0, y0, mvx, mvy int, res *[64]int32) (sumAbs int64) {
	sx, sy := x0+mvx, y0+mvy
	if sx >= 0 && sy >= 0 && sx+8 <= ref.w && sy+8 <= ref.h {
		return residual8(cur.pix[y0*cur.w+x0:], cur.w, ref.pix[sy*ref.w+sx:], ref.w, res)
	}
	for y := 0; y < 8; y++ {
		row := cur.pix[(y0+y)*cur.w+x0:]
		for x := 0; x < 8; x++ {
			v := int32(row[x]) - int32(ref.at(x0+x+mvx, y0+y+mvy))
			res[y*8+x] = v
			sumAbs += abs64(v)
		}
	}
	return sumAbs
}

// storeInter writes prediction + residual res into the current plane.
// An uncoded block has an all-zero residual, so it is exactly the
// motion-compensated prediction (prediction samples are already in
// [0, 255], so the clamp is a no-op) and res is not read. An interior
// prediction is one addClamp8 call; one that crosses the plane edge —
// the decoder accepts any vector a stream carries — is clamped per
// sample.
func storeInter(cur, ref *plane, x0, y0, mvx, mvy int, res *[64]int32, coded bool) {
	if !coded {
		copyMB(cur, ref, x0, y0, 8, mvx, mvy)
		return
	}
	sx, sy := x0+mvx, y0+mvy
	if sx >= 0 && sy >= 0 && sx+8 <= ref.w && sy+8 <= ref.h {
		addClamp8(cur.pix[y0*cur.w+x0:], cur.w, ref.pix[sy*ref.w+sx:], ref.w, res)
		return
	}
	for y := 0; y < 8; y++ {
		row := cur.pix[(y0+y)*cur.w+x0:]
		for x := 0; x < 8; x++ {
			row[x] = clampSample(res[y*8+x] + int32(ref.at(x0+x+mvx, y0+y+mvy)))
		}
	}
}

// copyMB copies a bs×bs block (bs is 8 or 16) from ref to cur at
// (x0, y0) displaced by (mvx, mvy) in the reference. An interior source
// block is one copy8 or copy16 call; edge-crossing predictions fall back
// to clamped per-sample reads.
func copyMB(cur, ref *plane, x0, y0, bs, mvx, mvy int) {
	sx, sy := x0+mvx, y0+mvy
	if sx >= 0 && sy >= 0 && sx+bs <= ref.w && sy+bs <= ref.h {
		dst, src := cur.pix[y0*cur.w+x0:], ref.pix[sy*ref.w+sx:]
		if bs == 16 {
			copy16(dst, cur.w, src, ref.w)
		} else {
			copy8(dst, cur.w, src, ref.w)
		}
		return
	}
	for y := 0; y < bs; y++ {
		row := cur.pix[(y0+y)*cur.w+x0:]
		for x := 0; x < bs; x++ {
			row[x] = ref.at(x0+x+mvx, y0+y+mvy)
		}
	}
}

// emitBlock entropy-codes one quantized block from its nonzero mask: a
// coded flag, then the DC level (SE), the count of nonzero AC levels
// (UE) — the mask's population — and for each a (zero-run, level) pair,
// the run being the distance between set bits. A pair whose two codes
// fit 32 bits goes out in one write. An uncoded block (mask 0) emits only
// the flag. levels is read at the mask's positions only.
func emitBlock(w *bitWriter, levels *[64]int32, mask uint64) {
	if mask == 0 {
		w.writeBits(0, 1)
		return
	}
	w.writeBits(1, 1)
	var dc int32
	if mask&1 != 0 {
		dc = levels[0]
	}
	w.writeSE(dc)
	ac := mask &^ 1
	w.writeUE(uint32(bits.OnesCount64(ac)))
	for next := 1; ac != 0; ac &= ac - 1 {
		pos := bits.TrailingZeros64(ac)
		rc, rw := ueCode(uint32(pos - next))
		lc, lw := seCode(levels[pos&63])
		if rw+lw <= 32 {
			w.writeBits(uint32(rc<<lw|lc), rw+lw) // the pair in one write
		} else {
			w.writeCode(rc, rw)
			w.writeCode(lc, lw)
		}
		next = pos + 1
	}
}

func clampSample(v int32) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// EncodeVideo compresses an entire in-memory video with the given
// configuration (dimensions are taken from the video when unset).
func EncodeVideo(v *video.Video, cfg Config) (*Encoded, error) {
	if len(v.Frames) == 0 {
		return nil, errors.New("codec: cannot encode empty video")
	}
	if cfg.Width == 0 || cfg.Height == 0 {
		cfg.Width, cfg.Height = v.Resolution()
	}
	if cfg.FPS == 0 {
		cfg.FPS = v.FPS
	}
	enc, err := NewEncoder(cfg)
	if err != nil {
		return nil, err
	}
	defer enc.Release()
	out := &Encoded{Config: enc.Config(), Frames: make([]EncodedFrame, 0, len(v.Frames))}
	for _, f := range v.Frames {
		ef, err := enc.Encode(f)
		if err != nil {
			return nil, err
		}
		out.Frames = append(out.Frames, ef)
	}
	return out, nil
}

// Encoded is a compressed frame sequence together with the configuration
// needed to decode it.
type Encoded struct {
	Config Config
	Frames []EncodedFrame
}

// Size returns the total compressed payload size in bytes.
func (e *Encoded) Size() int {
	n := 0
	for _, f := range e.Frames {
		n += len(f.Data)
	}
	return n
}
