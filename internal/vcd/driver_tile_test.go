package vcd

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/detect"
	"repro/internal/vcg"
	"repro/internal/vcity"
	"repro/internal/vdbms"
	"repro/internal/vdbms/lightdblike"
	"repro/internal/vdbms/noscopelike"
	"repro/internal/vdbms/scannerlike"
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

// TestRunTileDecodeEquivalence is the tile-aware decode contract at the
// driver level: on a tile-mode dataset, serving Q1's (frame window ×
// ROI) rectangle by tile-subset decode must be observably identical —
// per-instance results, validation verdicts, and persisted result
// bytes — to the whole-clip baseline (wholeClipSource) that reconstructs
// whole frames of the same bitstream. All three engine families are covered because
// each reaches the tiles by a different route: scannerlike ingests
// tile-scoped tables, lightdblike bounds its angular Select's pixel
// footprint, and noscopelike decodes the declared rectangle up front.
func TestRunTileDecodeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-configuration benchmark run in -short mode")
	}
	engines := []struct {
		name string
		mk   func() vdbms.System
	}{
		{"scannerlike", func() vdbms.System { return scannerlike.New(scannerlike.Options{}) }},
		{"lightdblike", func() vdbms.System { return lightdblike.New(lightdblike.Options{}) }},
		{"noscopelike", func() vdbms.System { return noscopelike.NewDefault() }},
	}
	for _, grid := range [][2]int{{2, 2}, {3, 2}} {
		rows, cols := grid[0], grid[1]
		ds := tiledTestDataset(t, rows, cols)
		for _, eng := range engines {
			if rows == 3 && eng.name != "noscopelike" {
				continue // one engine suffices for the second grid
			}
			t.Run(fmt.Sprintf("%dx%d/%s", rows, cols, eng.name), func(t *testing.T) {
				baseline := runWholeClipBaseline(t, ds, eng.mk(), Options{Workers: 1})

				tiled := runWindowed(t, ds, eng.mk(), Options{Workers: 1})
				compareOutcomes(t, "tile/workers=1", baseline, tiled)

				// The tile path can only narrow decode work, never widen it.
				fullSt := baseline.report.DecodedCache
				tileSt := tiled.report.DecodedCache
				if tileSt.FramesRequested == 0 {
					t.Error("tiled run requested no frames through the decoded cache")
				}
				if tileSt.FramesRequested > fullSt.FramesRequested {
					t.Errorf("tiled run requested %d frames, whole-clip baseline %d",
						tileSt.FramesRequested, fullSt.FramesRequested)
				}

				wide := runWindowed(t, ds, eng.mk(), Options{Workers: 8})
				compareOutcomes(t, "tile/workers=8", baseline, wide)

				prev := runtime.GOMAXPROCS(1)
				pinned := runWindowed(t, ds, eng.mk(), Options{Workers: 8})
				runtime.GOMAXPROCS(prev)
				compareOutcomes(t, "tile/workers=8/GOMAXPROCS=1", baseline, pinned)
			})
		}
	}
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
