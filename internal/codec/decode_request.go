package codec

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/video"
)

// This file is the codec's one decode path. Every decode is a Request:
// a frame window, a tile set, and a worker count. A full decode is the
// window [0, n) over every tile; a ranged decode narrows the window; a
// tiled decode narrows the tile set. Two independences make any such
// rectangle decodable without touching the rest of the stream:
//
//   - Temporal: every keyframe fully resets decoder state (intra
//     reconstruction writes all samples without reading the reference
//     planes), so decoding seeds at the keyframe governing the window
//     start and each later keyframe begins an independent chain. Frames
//     outside the window are never reconstructed, except the seed run
//     [keyframe, Lo) the window's first P-frames depend on.
//   - Spatial: tiles of a tile-mode stream share no prediction state
//     (tile.go), so each selected tile decodes on its own sub-decoder.
//
// The (tile × covering chain) pairs are therefore independent work
// items; one loop runs them, serially or across a worker pool, and the
// output is byte-identical at every worker count.

// Request selects what DecodeRequest reconstructs.
type Request struct {
	// Lo, Hi bound the frame window [Lo, Hi) in stream order.
	Lo, Hi int
	// Tiles lists the row-major tile indices to reconstruct; empty
	// selects every tile. Untiled streams have the single tile 0.
	Tiles []int
	// Workers bounds the goroutines decoding work items; values ≤ 1
	// decode serially on the calling goroutine.
	Workers int
}

// chainSpan is the access-unit run [start, end) of one GOP chain: start
// is a keyframe (on well-formed streams) and no later unit in the run is.
type chainSpan struct{ start, end int }

// KeyframeBefore returns the index of the keyframe governing frame i:
// the nearest keyframe at or before it. A malformed stream with no
// keyframe before i returns 0 (the decoder then reports the
// P-frame-before-keyframe error).
func (e *Encoded) KeyframeBefore(i int) int {
	if i >= len(e.Frames) {
		i = len(e.Frames) - 1
	}
	for ; i > 0; i-- {
		if e.Frames[i].Keyframe {
			return i
		}
	}
	return 0
}

// RangeCost returns the number of access units that must be decoded to
// produce frames [first, last): the window length plus the GOP-seed run
// in front of it. It is the "frames decoded" side of the range layer's
// frames-decoded vs frames-requested accounting.
func (e *Encoded) RangeCost(first, last int) int {
	if last <= first {
		return 0
	}
	return last - e.KeyframeBefore(first)
}

// coveringChains splits the access units a window [lo, hi) needs — from
// its governing keyframe to hi — into GOP chains. An empty window needs
// none.
func (e *Encoded) coveringChains(lo, hi int) []chainSpan {
	if lo >= hi {
		return nil
	}
	var chains []chainSpan
	start := e.KeyframeBefore(lo)
	for i := start + 1; i < hi; i++ {
		if e.Frames[i].Keyframe {
			chains = append(chains, chainSpan{start, i})
			start = i
		}
	}
	return append(chains, chainSpan{start, hi})
}

// selectTiles validates a request's tile list against the grid and
// resolves the empty list to every tile.
func (c *Config) selectTiles(tiles []int) ([]int, error) {
	count := c.TileCount()
	if len(tiles) == 0 {
		tiles = make([]int, count)
		for t := range tiles {
			tiles[t] = t
		}
		return tiles, nil
	}
	var seen uint64 // grids are capped at maxTiles = 64
	for _, t := range tiles {
		if t < 0 || t >= count {
			return nil, fmt.Errorf("codec: tile %d outside grid of %d tiles", t, count)
		}
		if seen&(1<<uint(t)) != 0 {
			return nil, fmt.Errorf("codec: duplicate tile %d in tile set", t)
		}
		seen |= 1 << uint(t)
	}
	return tiles, nil
}

// DecodeRequest reconstructs the (frame window × tile set) rectangle of
// the stream. The returned video holds exactly Hi−Lo full-dimension
// frames in stream order carrying their absolute stream indices; on a
// tile-mode stream the regions of unselected tiles are left at the
// black frame default, so pixel coordinates (and downstream kernels) are
// unaffected by the tile set. Selected pixels are byte-identical to a
// serial whole-clip decode at every worker count.
//
// Each work item is recorded as one codec.gop span.
func (e *Encoded) DecodeRequest(req Request) (*video.Video, error) {
	n := len(e.Frames)
	if req.Lo < 0 || req.Hi > n || req.Lo > req.Hi {
		return nil, fmt.Errorf("codec: frame range [%d, %d) outside [0, %d]", req.Lo, req.Hi, n)
	}
	cfg := e.Config.withDefaults()
	tiles, err := cfg.selectTiles(req.Tiles)
	if err != nil {
		return nil, err
	}
	tiled := cfg.Tiled()
	chains := e.coveringChains(req.Lo, req.Hi)

	out := video.NewVideo(cfg.FPS)
	out.Frames = make([]*video.Frame, req.Hi-req.Lo)
	rects := cfg.TileRects()
	if tiled {
		// Tiles blit into frames allocated up front: work items write
		// disjoint (frame × tile rectangle) regions. Untiled streams hand
		// each decoded frame to its slot directly.
		for i := range out.Frames {
			out.Frames[i] = video.NewFrame(cfg.Width, cfg.Height)
			out.Frames[i].Index = req.Lo + i
		}
	}
	type workItem struct {
		tile int
		chainSpan
	}
	items := make([]workItem, 0, len(tiles)*len(chains))
	for _, t := range tiles {
		for _, ch := range chains {
			items = append(items, workItem{t, ch})
		}
	}
	err = parallel.ForEachWorker(req.Workers, len(items), func(worker, wi int) error {
		it := items[wi]
		sp := metrics.StartSpan(metrics.StageGOPDecode)
		sp.Worker(worker)
		defer sp.End()
		dcfg := cfg
		if tiled {
			dcfg = tileConfig(cfg, rects[it.tile])
		}
		dec, err := GetDecoder(dcfg)
		if err != nil {
			return err
		}
		defer PutDecoder(dec)
		for i := it.start; i < it.end; i++ {
			data := e.Frames[i].Data
			if tiled {
				if data, err = tilePayload(data, len(rects), it.tile); err != nil {
					return fmt.Errorf("codec: frame %d: %w", i, err)
				}
			}
			fr, err := dec.Decode(data)
			if err != nil {
				if tiled {
					err = fmt.Errorf("tile %d: %w", it.tile, err)
				}
				return fmt.Errorf("codec: frame %d: %w", i, err)
			}
			sp.Frames(1)
			sp.Bytes(int64(len(data)))
			switch {
			case i < req.Lo:
				video.PutFrame(fr) // seed run: decoded for reference state only
			case tiled:
				blitTile(out.Frames[i-req.Lo], rects[it.tile], fr)
				video.PutFrame(fr)
			default:
				fr.Index = i
				out.Frames[i-req.Lo] = fr
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Decode decompresses the whole sequence serially.
func (e *Encoded) Decode() (*video.Video, error) {
	return e.DecodeRequest(Request{Hi: len(e.Frames)})
}

// DecodeParallel decompresses the whole sequence on up to workers
// goroutines (≤ 0 selects parallel.Default()).
func (e *Encoded) DecodeParallel(workers int) (*video.Video, error) {
	return e.DecodeRequest(Request{Hi: len(e.Frames), Workers: parallel.Normalize(workers)})
}

// DecodeRange decodes frames [first, last) serially.
func (e *Encoded) DecodeRange(first, last int) (*video.Video, error) {
	return e.DecodeRequest(Request{Lo: first, Hi: last})
}

// DecodeTiles decodes the listed tiles of frames [first, last) on up to
// workers goroutines (≤ 0 selects parallel.Default()).
func (e *Encoded) DecodeTiles(workers, first, last int, tiles []int) (*video.Video, error) {
	return e.DecodeRequest(Request{Lo: first, Hi: last, Tiles: tiles, Workers: parallel.Normalize(workers)})
}
