package vcd

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/detect"
	"repro/internal/vcg"
	"repro/internal/vcity"
	"repro/internal/vdbms"
	"repro/internal/vfs"
)

// tiledTestDataset generates a model-scale dataset whose videos are
// encoded in tile mode with the given grid.
func tiledTestDataset(t *testing.T, rows, cols int) *Dataset {
	t.Helper()
	store := vfs.NewMemory()
	_, err := vcg.Generate(vcity.Hyperparams{
		Scale: 1, Width: 128, Height: 96, Duration: 1.0, FPS: 15, Seed: 7,
	}, vcg.Options{Captions: true, QP: 18, TileRows: rows, TileCols: cols}, store)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := LoadDataset(store, detect.ProfileSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestDatasetDecodedTiles pins the tile-keyed cache semantics at the
// Dataset layer: tile requests decode only their tile set, the selected
// regions are byte-identical to a full decode, a resident full-frame
// window serves tile requests without a decode, and a full-frame request
// is never served by a tiled window.
func TestDatasetDecodedTiles(t *testing.T) {
	ds := tiledTestDataset(t, 2, 2)
	ds.configureDecodedCache(0)
	ids := ds.TrafficCameraIDs()
	if len(ids) == 0 {
		t.Fatal("dataset has no traffic cameras")
	}
	in, err := ds.Input(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg := in.Encoded.Config
	n := len(in.Encoded.Frames)
	rects := cfg.TileRects()

	// ROI covering tile 0 only; the whole frame maps to nil (full frames).
	r0 := rects[0]
	tiles := vdbms.InputTiles(in, 0, 0, r0.W, r0.H)
	if len(tiles) != 1 || tiles[0] != 0 {
		t.Fatalf("tile-0 ROI mapped to tiles %v", tiles)
	}
	if all := vdbms.InputTiles(in, 0, 0, cfg.Width, cfg.Height); all != nil {
		t.Fatalf("whole-frame ROI mapped to tiles %v, want nil", all)
	}

	v, err := ds.Decoded(in, codec.Request{Hi: n, Tiles: tiles})
	if err != nil {
		t.Fatal(err)
	}
	if resident(ds.decoded, in.Name, 0, n) {
		t.Fatal("a tiled window counts as a resident full-frame window")
	}
	st := ds.DecodedCacheStats()
	full, err := ds.Decoded(in, codec.Request{Hi: n})
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.DecodedCacheStats(); got.Misses != st.Misses+1 || got.Hits != st.Hits {
		t.Fatalf("full-frame request over a tiled window: hits %d→%d misses %d→%d, want a miss",
			st.Hits, got.Hits, st.Misses, got.Misses)
	}
	for i := range full.Frames {
		want := full.Frames[i].Crop(0, 0, r0.W, r0.H)
		got := v.Frames[i].Crop(0, 0, r0.W, r0.H)
		if !bytes.Equal(want.Y, got.Y) || !bytes.Equal(want.U, got.U) || !bytes.Equal(want.V, got.V) {
			t.Fatalf("frame %d: tile-decoded ROI differs from full decode", i)
		}
	}

	// The tiled and full-frame windows coexist under different masks.
	if !resident(ds.decoded, in.Name, 0, n) {
		t.Fatal("full-frame window not resident after a full-frame request")
	}
	st = ds.DecodedCacheStats()

	// A tile request covered by the resident full-frame window hits.
	if _, err := ds.Decoded(in, codec.Request{Hi: n, Tiles: []int{3}}); err != nil {
		t.Fatal(err)
	}
	if got := ds.DecodedCacheStats(); got.Hits != st.Hits+1 || got.Misses != st.Misses {
		t.Fatalf("tile request over full-frame window: hits %d→%d misses %d→%d, want a hit",
			st.Hits, got.Hits, st.Misses, got.Misses)
	}

	// A fresh cache serves repeated same-tile requests from the tiled
	// window.
	ds.configureDecodedCache(0)
	for i := 0; i < 2; i++ {
		if _, err := ds.Decoded(in, codec.Request{Hi: n, Tiles: tiles}); err != nil {
			t.Fatal(err)
		}
	}
	if got := ds.DecodedCacheStats(); got.Hits != 1 || got.Misses != 1 {
		t.Fatalf("repeat tile request: %d hits / %d misses, want 1 / 1", got.Hits, got.Misses)
	}
}
