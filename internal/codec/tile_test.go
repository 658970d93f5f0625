package codec

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// TestTileStitchIdentity is the correctness rail of the tiled decode
// path: decoding a tile-mode stream tile by tile (DecodeRequest's work
// items, blitting into preallocated frames) must be byte-identical to
// the Decoder's own all-tile stitch of the same access units, at every
// worker count, for the whole grid and for each tile alone, with
// GOMAXPROCS pinned to 1 so goroutine interleaving can't mask ordering
// bugs.
func TestTileStitchIdentity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	src := gradientVideo(64, 48, 10)
	grids := []struct{ rows, cols int }{{1, 1}, {2, 2}, {3, 2}}
	for _, g := range grids {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%dx%d/workers=%d", g.rows, g.cols, workers), func(t *testing.T) {
				enc, err := EncodeVideo(src, Config{QP: 10, GOP: 5, TileRows: g.rows, TileCols: g.cols})
				if err != nil {
					t.Fatal(err)
				}
				ref := referenceDecode(t, enc)
				n := len(enc.Frames)
				checkRequest(t, enc, ref, Request{Hi: n, Workers: workers})
				all := make([]int, enc.Config.TileCount())
				for tile := range all {
					all[tile] = tile
					checkRequest(t, enc, ref, Request{Hi: n, Tiles: []int{tile}, Workers: workers})
				}
				checkRequest(t, enc, ref, Request{Hi: n, Tiles: all, Workers: workers})
			})
		}
	}
}

// TestTileGeometry checks the 16-aligned tile grid: rectangles tile the
// frame exactly, boundaries are macroblock-aligned, and TilesCovering
// maps pixel rectangles to the right tile sets.
func TestTileGeometry(t *testing.T) {
	cfg := Config{Width: 100, Height: 52, TileRows: 3, TileCols: 6}
	rects := cfg.TileRects()
	if len(rects) != 18 {
		t.Fatalf("got %d rects, want 18", len(rects))
	}
	area := 0
	for i, r := range rects {
		if r.X%16 != 0 || r.Y%16 != 0 {
			t.Errorf("tile %d origin (%d,%d) not 16-aligned", i, r.X, r.Y)
		}
		if r.W < 16 || r.H < 16 {
			t.Errorf("tile %d is %dx%d, want at least 16x16", i, r.W, r.H)
		}
		area += r.W * r.H
	}
	if area != 100*52 {
		t.Errorf("tile areas sum to %d, want %d", area, 100*52)
	}

	cfg2 := Config{Width: 64, Height: 48, TileRows: 2, TileCols: 2}
	cases := []struct {
		x1, y1, x2, y2 string
		rect           [4]int
		want           []int
	}{
		{rect: [4]int{0, 0, 64, 48}, want: []int{0, 1, 2, 3}},
		{rect: [4]int{0, 0, 16, 16}, want: []int{0}},
		{rect: [4]int{40, 30, 64, 48}, want: []int{3}},
		{rect: [4]int{10, 10, 40, 30}, want: []int{0, 1, 2, 3}},
		{rect: [4]int{0, 30, 64, 48}, want: []int{2, 3}},
		{rect: [4]int{-5, -5, 1000, 1}, want: []int{0, 1}},
	}
	for _, c := range cases {
		got := cfg2.TilesCovering(c.rect[0], c.rect[1], c.rect[2], c.rect[3])
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("TilesCovering(%v) = %v, want %v", c.rect, got, c.want)
		}
	}
}

// TestTileConfigValidation rejects grids that don't fit 16-pixel tiles
// or exceed the bitmask bound.
func TestTileConfigValidation(t *testing.T) {
	bad := []Config{
		{Width: 64, Height: 48, TileRows: 2, TileCols: 5},     // 5 cols need 80px
		{Width: 64, Height: 48, TileRows: 4, TileCols: 2},     // 4 rows need 64px
		{Width: 2048, Height: 2048, TileRows: 9, TileCols: 8}, // 72 > 64 tiles
		{Width: 64, Height: 48, TileRows: -1, TileCols: 2},
		{Width: 240, Height: 136, TileRows: 274177, TileCols: 67280421310721}, // the product wraps to 1
	}
	for _, cfg := range bad {
		if _, err := NewEncoder(cfg); err == nil {
			t.Errorf("NewEncoder(%dx%d grid %dx%d): want error",
				cfg.Width, cfg.Height, cfg.TileRows, cfg.TileCols)
		}
	}
	if _, err := NewEncoder(Config{Width: 64, Height: 48, TileRows: 3, TileCols: 4}); err != nil {
		t.Errorf("3x4 grid on 64x48 should fit: %v", err)
	}
}

// TestExplicitOneByOneGridMatchesDefault pins the untiled guarantee:
// -tile-grid 1x1 must produce bit-identical streams to the pre-tile
// encoder (whose bytes the golden corpus pins).
func TestExplicitOneByOneGridMatchesDefault(t *testing.T) {
	src := gradientVideo(64, 48, 6)
	def, err := EncodeVideo(src, Config{QP: 10, GOP: 3})
	if err != nil {
		t.Fatal(err)
	}
	one, err := EncodeVideo(src, Config{QP: 10, GOP: 3, TileRows: 1, TileCols: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Frames) != len(one.Frames) {
		t.Fatalf("frame counts differ: %d vs %d", len(def.Frames), len(one.Frames))
	}
	for i := range def.Frames {
		if !bytes.Equal(def.Frames[i].Data, one.Frames[i].Data) {
			t.Fatalf("frame %d: explicit 1x1 grid bytes differ from default encode", i)
		}
	}
	if one.Config.Tiled() {
		t.Error("1x1 grid config reports Tiled() == true")
	}
}

// TestTiledEncodeDeterministicAcrossWorkers pins encoder determinism in
// tile mode: tiles are independent, so worker count must not change the
// bitstream.
func TestTiledEncodeDeterministicAcrossWorkers(t *testing.T) {
	src := gradientVideo(64, 48, 6)
	var prev *Encoded
	for _, workers := range []int{1, 3, 8} {
		enc, err := EncodeVideo(src, Config{QP: 10, GOP: 3, TileRows: 2, TileCols: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			for i := range enc.Frames {
				if !bytes.Equal(enc.Frames[i].Data, prev.Frames[i].Data) {
					t.Fatalf("frame %d: bitstream differs at workers=%d", i, workers)
				}
			}
		}
		prev = enc
	}
}

// TestTiledAccessUnitErrors covers corrupt and partial tiled access
// units (request validation is TestDecodeRequestErrors).
func TestTiledAccessUnitErrors(t *testing.T) {
	src := gradientVideo(64, 48, 4)
	enc, err := EncodeVideo(src, Config{QP: 10, GOP: 4, TileRows: 2, TileCols: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Truncated directory.
	bad := &Encoded{Config: enc.Config, Frames: []EncodedFrame{{Data: []byte{0, 0, 1}, Keyframe: true}}}
	if _, err := bad.DecodeTiles(1, 0, 1, []int{0}); err == nil {
		t.Error("truncated tile directory: want error")
	}
	if _, err := bad.Decode(); err == nil {
		t.Error("truncated tile directory via Decode: want error")
	}
	if dec, err := NewDecoder(enc.Config); err != nil {
		t.Fatal(err)
	} else if _, err := dec.Decode(bad.Frames[0].Data); err == nil {
		t.Error("truncated tile directory via Decoder.Decode: want error")
	}
	// Directory overrunning the AU.
	au := append([]byte{}, enc.Frames[0].Data...)
	au[0], au[1], au[2], au[3] = 0xFF, 0xFF, 0xFF, 0xFF
	bad2 := &Encoded{Config: enc.Config, Frames: []EncodedFrame{{Data: au, Keyframe: true}}}
	if _, err := bad2.DecodeTiles(1, 0, 1, []int{0}); err == nil {
		t.Error("overrunning tile payload: want error")
	}
	// Absent tile payload (zero directory entry) must error when asked for.
	au3 := append([]byte{}, enc.Frames[0].Data...)
	offs, err := tileDirectory(au3, 4)
	if err != nil {
		t.Fatal(err)
	}
	partial := make([]byte, 0, len(au3)-(offs[1]-offs[0]))
	for i := 0; i < 16; i++ {
		partial = append(partial, au3[i])
	}
	partial[3] = 0 // tile 0 length = 0 (lengths are small; low byte suffices)
	partial = append(partial, au3[offs[1]:]...)
	if _, err := tilePayload(partial, 4, 0); err == nil {
		t.Error("absent tile payload: want error")
	}
	if _, err := tilePayload(partial, 4, 1); err != nil {
		t.Errorf("present tile in partial AU: %v", err)
	}
}
