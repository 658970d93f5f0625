package codec

import (
	"encoding/binary"
	"fmt"

	"repro/internal/parallel"
	"repro/internal/video"
)

// Tiled spatial decode. A tile-mode stream (Config.TileRows/TileCols)
// splits every frame into a grid of independently decodable tiles:
// motion estimation and prediction are confined within tile boundaries
// and each tile carries its own entropy payload, so any subset of tiles
// reconstructs without touching the others — the spatial analog of the
// GOP being the unit of temporal independence. A tiled access unit is
//
//	dir[0..T)  — uint32 big-endian payload length per tile, row-major
//	payloads   — the tiles' self-contained access units, concatenated
//
// A zero directory length marks a tile whose payload is absent from the
// unit: decoding that tile is an error, and the offsets of the present
// tiles still fall out of the directory prefix sums. Tile
// boundaries are aligned down to multiples of 16 so every tile starts
// on a macroblock row/column and chroma offsets stay even — each tile's
// 4:2:0 planes are exact sub-rectangles of the frame's.
//
// Invariant (the stitch-identity rail): decoding all tiles of a
// tile-mode stream and stitching is byte-identical to Decoder.Decode on
// the same stream, at every worker count; untiled streams (the 1x1
// default) are bit-identical to the pre-tile encoder, which the golden
// corpus pins.

// maxTiles bounds the grid so a tile set fits a uint64 bitmask (the
// decoded-cache key) and directories stay trivially small.
const maxTiles = 64

// TileRect is one tile's pixel rectangle within the frame.
type TileRect struct {
	X, Y, W, H int
}

// tileGrid returns the effective grid dimensions (≥ 1 each).
func (c *Config) tileGrid() (rows, cols int) {
	rows, cols = c.TileRows, c.TileCols
	if rows < 1 {
		rows = 1
	}
	if cols < 1 {
		cols = 1
	}
	return rows, cols
}

// Tiled reports whether the configuration uses a tile grid (anything
// beyond the 1x1 default).
func (c *Config) Tiled() bool {
	rows, cols := c.tileGrid()
	return rows*cols > 1
}

// TileCount returns the number of tiles in the grid (1 when untiled).
func (c *Config) TileCount() int {
	rows, cols := c.tileGrid()
	return rows * cols
}

// tileEdges splits extent into n spans whose interior boundaries are
// aligned down to multiples of 16; the last span absorbs the remainder.
// Validate guarantees extent ≥ 16·n, which makes the edges strictly
// increasing.
func tileEdges(extent, n int) []int {
	edges := make([]int, n+1)
	for i := 1; i < n; i++ {
		edges[i] = (extent * i / n) &^ 15
	}
	edges[n] = extent
	return edges
}

// TileRects returns the tile rectangles in row-major order (a single
// full-frame rectangle when untiled).
func (c *Config) TileRects() []TileRect {
	rows, cols := c.tileGrid()
	xs := tileEdges(c.Width, cols)
	ys := tileEdges(c.Height, rows)
	rects := make([]TileRect, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for cl := 0; cl < cols; cl++ {
			rects = append(rects, TileRect{
				X: xs[cl], Y: ys[r],
				W: xs[cl+1] - xs[cl], H: ys[r+1] - ys[r],
			})
		}
	}
	return rects
}

// TilesCovering returns the (row-major) tile indices whose rectangles
// intersect the pixel rectangle [x1,x2)×[y1,y2), clamped to the frame.
// A degenerate rectangle selects the tile containing its clamped
// origin, mirroring video.Frame.Crop's degenerate-rectangle semantics.
func (c *Config) TilesCovering(x1, y1, x2, y2 int) []int {
	rows, cols := c.tileGrid()
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	x1 = clamp(x1, 0, c.Width-1)
	y1 = clamp(y1, 0, c.Height-1)
	x2 = clamp(x2, x1+1, c.Width)
	y2 = clamp(y2, y1+1, c.Height)
	xs := tileEdges(c.Width, cols)
	ys := tileEdges(c.Height, rows)
	var out []int
	for r := 0; r < rows; r++ {
		if ys[r] >= y2 || ys[r+1] <= y1 {
			continue
		}
		for cl := 0; cl < cols; cl++ {
			if xs[cl] >= x2 || xs[cl+1] <= x1 {
				continue
			}
			out = append(out, r*cols+cl)
		}
	}
	return out
}

// validateTiles checks the tile-grid fields of a config (called from
// Config.Validate).
func (c *Config) validateTiles() error {
	if c.TileRows < 0 || c.TileCols < 0 {
		return fmt.Errorf("codec: negative tile grid %dx%d", c.TileRows, c.TileCols)
	}
	rows, cols := c.tileGrid()
	// Bound each dimension first: the product of two large ones wraps.
	if rows > maxTiles || cols > maxTiles || rows*cols > maxTiles {
		return fmt.Errorf("codec: tile grid %dx%d exceeds %d tiles", rows, cols, maxTiles)
	}
	if rows*cols == 1 {
		return nil
	}
	if cols > c.Width/16 || rows > c.Height/16 {
		return fmt.Errorf("codec: tile grid %dx%d needs tiles of at least 16x16 pixels in a %dx%d frame",
			rows, cols, c.Width, c.Height)
	}
	return nil
}

// tileConfig derives the sub-codec configuration for one tile: same
// preset, QP, and GOP cadence, tile dimensions, and a bitrate budget
// proportional to the tile's share of the frame area.
func tileConfig(c Config, r TileRect) Config {
	sub := c
	sub.Width, sub.Height = r.W, r.H
	sub.TileRows, sub.TileCols = 0, 0
	sub.Workers = 0
	if c.BitrateKbps > 0 {
		br := c.BitrateKbps * r.W * r.H / (c.Width * c.Height)
		if br < 1 {
			br = 1
		}
		sub.BitrateKbps = br
	}
	return sub
}

// extractTileInto copies the tile rectangle of src into dst (sized
// r.W×r.H). Tile origins are even (16-aligned), so the chroma planes
// are exact sub-rectangles — no resampling.
func extractTileInto(src *video.Frame, r TileRect, dst *video.Frame) {
	for y := 0; y < r.H; y++ {
		copy(dst.Y[y*r.W:(y+1)*r.W], src.Y[(r.Y+y)*src.W+r.X:(r.Y+y)*src.W+r.X+r.W])
	}
	cw, ch := dst.ChromaW(), dst.ChromaH()
	scw := src.ChromaW()
	cx, cy := r.X/2, r.Y/2
	for y := 0; y < ch; y++ {
		copy(dst.U[y*cw:(y+1)*cw], src.U[(cy+y)*scw+cx:(cy+y)*scw+cx+cw])
		copy(dst.V[y*cw:(y+1)*cw], src.V[(cy+y)*scw+cx:(cy+y)*scw+cx+cw])
	}
}

// blitTile copies a decoded tile frame into the tile rectangle of dst.
// Tiles write disjoint plane regions, so concurrent blits of different
// tiles into one frame are race-free.
func blitTile(dst *video.Frame, r TileRect, src *video.Frame) {
	for y := 0; y < r.H; y++ {
		copy(dst.Y[(r.Y+y)*dst.W+r.X:(r.Y+y)*dst.W+r.X+r.W], src.Y[y*r.W:(y+1)*r.W])
	}
	cw, ch := src.ChromaW(), src.ChromaH()
	dcw := dst.ChromaW()
	cx, cy := r.X/2, r.Y/2
	for y := 0; y < ch; y++ {
		copy(dst.U[(cy+y)*dcw+cx:(cy+y)*dcw+cx+cw], src.U[y*cw:(y+1)*cw])
		copy(dst.V[(cy+y)*dcw+cx:(cy+y)*dcw+cx+cw], src.V[y*cw:(y+1)*cw])
	}
}

// tileCoder is one tile's sub-encoder plus its extraction scratch.
type tileCoder struct {
	rect TileRect
	enc  *Encoder
	buf  *video.Frame
	out  EncodedFrame
}

// newTileCoders builds the per-tile sub-encoders of a tiled encoder.
func newTileCoders(c Config) ([]tileCoder, error) {
	rects := c.TileRects()
	tiles := make([]tileCoder, len(rects))
	for i, r := range rects {
		enc, err := NewEncoder(tileConfig(c, r))
		if err != nil {
			for j := range tiles[:i] {
				tiles[j].enc.Release()
			}
			return nil, fmt.Errorf("codec: tile %d: %w", i, err)
		}
		tiles[i] = tileCoder{rect: r, enc: enc, buf: video.NewFrame(r.W, r.H)}
	}
	return tiles, nil
}

// encodeTiled compresses one frame in tile mode: each tile extracts,
// encodes on its own sub-encoder (motion and prediction never cross the
// tile boundary), and the payloads assemble behind a length directory.
// Tiles are independent, so they spread across the worker pool with
// bit-identical output at every worker count.
func (e *Encoder) encodeTiled(f *video.Frame) (EncodedFrame, error) {
	if f.W != e.cfg.Width || f.H != e.cfg.Height {
		return EncodedFrame{}, fmt.Errorf("codec: frame is %dx%d, encoder configured for %dx%d",
			f.W, f.H, e.cfg.Width, e.cfg.Height)
	}
	encodeTile := func(ti int) error {
		t := &e.tiles[ti]
		extractTileInto(f, t.rect, t.buf)
		ef, err := t.enc.Encode(t.buf)
		if err != nil {
			return fmt.Errorf("codec: tile %d: %w", ti, err)
		}
		t.out = ef
		return nil
	}
	if e.workers > 1 && len(e.tiles) > 1 {
		if err := parallel.ForEach(e.workers, len(e.tiles), encodeTile); err != nil {
			return EncodedFrame{}, err
		}
	} else {
		for ti := range e.tiles {
			if err := encodeTile(ti); err != nil {
				return EncodedFrame{}, err
			}
		}
	}
	n := 4 * len(e.tiles)
	for i := range e.tiles {
		n += len(e.tiles[i].out.Data)
	}
	data := make([]byte, 0, n)
	for i := range e.tiles {
		data = binary.BigEndian.AppendUint32(data, uint32(len(e.tiles[i].out.Data)))
	}
	for i := range e.tiles {
		data = append(data, e.tiles[i].out.Data...)
	}
	isKey := e.tiles[0].out.Keyframe
	e.frameIdx++
	return EncodedFrame{Data: data, Keyframe: isKey}, nil
}

// tileDirectory parses the per-tile length directory of a tiled access
// unit, returning the payload byte offsets (relative to data) of each
// tile. Absent tiles (length 0 — a partial AU holding only a fetched
// tile subset) get offs[t] == offs[t+1]. The directory must account for
// the AU exactly; anything else is a corrupt stream.
func tileDirectory(data []byte, tiles int) (offs []int, err error) {
	dir := 4 * tiles
	if len(data) < dir {
		return nil, fmt.Errorf("codec: tiled access unit of %d bytes lacks %d-tile directory", len(data), tiles)
	}
	offs = make([]int, tiles+1)
	offs[0] = dir
	for t := 0; t < tiles; t++ {
		n := int(binary.BigEndian.Uint32(data[4*t:]))
		if n > len(data)-offs[t] {
			return nil, fmt.Errorf("codec: tile %d payload of %d bytes overruns access unit", t, n)
		}
		offs[t+1] = offs[t] + n
	}
	if offs[tiles] != len(data) {
		return nil, fmt.Errorf("codec: tiled access unit has %d trailing bytes", len(data)-offs[tiles])
	}
	return offs, nil
}

// tilePayload slices tile t's payload out of a tiled access unit. An
// absent tile (zero directory length) is an error: the caller asked for
// a tile the span fetch did not include.
func tilePayload(data []byte, tiles, t int) ([]byte, error) {
	offs, err := tileDirectory(data, tiles)
	if err != nil {
		return nil, err
	}
	if offs[t] == offs[t+1] {
		return nil, fmt.Errorf("codec: tile %d absent from access unit", t)
	}
	return data[offs[t]:offs[t+1]], nil
}

// TileSizes returns the per-tile payload sizes recorded in a tiled
// access unit's length directory, validating that the directory
// accounts for the unit exactly. The container checks every tiled
// sample with it at mux time.
func TileSizes(data []byte, tiles int) ([]uint32, error) {
	offs, err := tileDirectory(data, tiles)
	if err != nil {
		return nil, err
	}
	sizes := make([]uint32, tiles)
	for t := 0; t < tiles; t++ {
		sizes[t] = uint32(offs[t+1] - offs[t])
	}
	return sizes, nil
}

// tileDec is one tile's sub-decoder.
type tileDec struct {
	rect TileRect
	dec  *Decoder
}

// newTileDecs builds the per-tile sub-decoders of a tiled decoder.
func newTileDecs(c Config) ([]tileDec, error) {
	rects := c.TileRects()
	tiles := make([]tileDec, len(rects))
	for i, r := range rects {
		dec, err := NewDecoder(tileConfig(c, r))
		if err != nil {
			return nil, fmt.Errorf("codec: tile %d: %w", i, err)
		}
		tiles[i] = tileDec{rect: r, dec: dec}
	}
	return tiles, nil
}

// decodeTiled decompresses one tiled access unit into a full frame:
// every tile's payload decodes on its sub-decoder and blits into the
// tile rectangle. This is the full-frame decode of a tile-mode stream —
// the output DecodeTiles over all tiles must match byte for byte.
func (d *Decoder) decodeTiled(data []byte) (*video.Frame, error) {
	offs, err := tileDirectory(data, len(d.tiles))
	if err != nil {
		return nil, err
	}
	out := d.newFrame()
	for t := range d.tiles {
		if offs[t] == offs[t+1] {
			video.PutFrame(out)
			return nil, fmt.Errorf("codec: tile %d absent from access unit", t)
		}
		tf, err := d.tiles[t].dec.Decode(data[offs[t]:offs[t+1]])
		if err != nil {
			video.PutFrame(out)
			return nil, fmt.Errorf("codec: tile %d: %w", t, err)
		}
		blitTile(out, d.tiles[t].rect, tf)
		video.PutFrame(tf)
	}
	return out, nil
}
