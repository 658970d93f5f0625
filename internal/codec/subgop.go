package codec

import (
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/video"
)

// Sub-GOP decode parallelism. GOP-chain decoding stops scaling when a
// stream has fewer keyframes than the machine has workers — the
// pathological case being a single-GOP stream, which decodes serially no
// matter how many cores are available. This file splits the decode into
// the two phases the bitstream actually couples differently:
//
//   - Entropy parse: every access unit is a self-contained bitstream
//     (the frame header carries its own QP; motion vectors are
//     differential only within a frame), so parsing — the branchy,
//     serial-looking half of decode — runs for all frames concurrently.
//     Absolute motion vectors are resolved during the parse.
//
//   - Reconstruction: P-frames chain on their reference frame, so frames
//     reconstruct in stream order within a chain. But with symbols
//     already parsed, macroblocks no longer share any decoder state —
//     each writes only its own block of the current planes and reads the
//     immutable reference — so macroblock rows of one frame reconstruct
//     in parallel.
//
// The result is a worker-count slope on single-stream decode: entropy
// across frames, transform across rows, bit-identical to the serial
// decoder at every worker count (the golden corpus pins this).

// auSyms holds the fully parsed symbols of one access unit: the frame
// header plus one mbCode per macroblock with absolute motion vectors.
type auSyms struct {
	isKey bool
	qp    int
	mbs   []mbCode
}

// mbsPool recycles macroblock symbol slices across decodes; parsed
// symbols for one frame run ~1.6 KB per macroblock.
var mbsPool sync.Pool

func getMBs(n int) []mbCode {
	if v := mbsPool.Get(); v != nil {
		if s := v.([]mbCode); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]mbCode, n)
}

func putMBs(s []mbCode) {
	if s != nil {
		mbsPool.Put(s[:0]) //nolint:staticcheck // slice header allocation is amortized
	}
}

// parseAU entropy-decodes one access unit into s.mbs (resized from the
// pool as needed) without touching any pixel data. Motion vectors are
// resolved to absolute values so reconstruction needs no cross-MB state.
// The syntax and error conditions match Decoder.Decode exactly.
func parseAU(data []byte, mbW, mbH int, s *auSyms) error {
	r := bitReader{buf: data}
	isKey, qp, err := readFrameHeader(&r)
	if err != nil {
		return err
	}
	s.isKey, s.qp = isKey, qp
	if cap(s.mbs) < mbW*mbH {
		s.mbs = getMBs(mbW * mbH)
	} else {
		s.mbs = s.mbs[:mbW*mbH]
	}
	for my := 0; my < mbH; my++ {
		pmvx, pmvy := 0, 0
		for mx := 0; mx < mbW; mx++ {
			mb := &s.mbs[my*mbW+mx]
			if isKey {
				mb.skip = false
				mb.mvx, mb.mvy = 0, 0
				for bi := range mb.levels {
					if mb.coded[bi], err = decodeBlock(&r, &mb.levels[bi]); err != nil {
						return err
					}
				}
				continue
			}
			skip, err := r.readBits(1)
			if err != nil {
				return err
			}
			if skip == 1 {
				mb.skip = true
				mb.mvx, mb.mvy = 0, 0
				pmvx, pmvy = 0, 0
				continue
			}
			mb.skip = false
			dmvx, err := r.readSE()
			if err != nil {
				return err
			}
			dmvy, err := r.readSE()
			if err != nil {
				return err
			}
			mb.mvx, mb.mvy = pmvx+int(dmvx), pmvy+int(dmvy)
			for bi := range mb.levels {
				if mb.coded[bi], err = decodeBlock(&r, &mb.levels[bi]); err != nil {
					return err
				}
			}
			pmvx, pmvy = mb.mvx, mb.mvy
		}
	}
	return nil
}

// reconstructAU rebuilds one frame from parsed symbols, spreading
// macroblock rows across up to workers goroutines. It is the pixel half
// of Decoder.Decode: identical reconstruction arithmetic, identical
// reference rotation.
func (d *Decoder) reconstructAU(s *auSyms, workers int) (*video.Frame, error) {
	if !s.isKey && !d.haveRef {
		return nil, fmt.Errorf("codec: P-frame received before any keyframe")
	}
	mbW := d.curY.w / 16
	mbH := d.curY.h / 16
	qp := s.qp
	recRow := func(my int) error {
		for mx := 0; mx < mbW; mx++ {
			mb := &s.mbs[my*mbW+mx]
			switch {
			case s.isKey:
				bi := 0
				for by := 0; by < 2; by++ {
					for bx := 0; bx < 2; bx++ {
						reconstructIntra(d.curY, mx*16+bx*8, my*16+by*8, &mb.levels[bi], qp, mb.coded[bi])
						bi++
					}
				}
				for _, p := range [2]*plane{d.curU, d.curV} {
					reconstructIntra(p, mx*8, my*8, &mb.levels[bi], qp, mb.coded[bi])
					bi++
				}
			case mb.skip:
				copyMB(d.curY, d.refY, mx*16, my*16, 16, 0, 0)
				copyMB(d.curU, d.refU, mx*8, my*8, 8, 0, 0)
				copyMB(d.curV, d.refV, mx*8, my*8, 8, 0, 0)
			default:
				bi := 0
				for by := 0; by < 2; by++ {
					for bx := 0; bx < 2; bx++ {
						reconstructInter(d.curY, d.refY, mx*16+bx*8, my*16+by*8, mb.mvx, mb.mvy, &mb.levels[bi], qp, mb.coded[bi])
						bi++
					}
				}
				cmvx, cmvy := mb.mvx/2, mb.mvy/2
				for _, pp := range [2]struct{ cur, ref *plane }{{d.curU, d.refU}, {d.curV, d.refV}} {
					reconstructInter(pp.cur, pp.ref, mx*8, my*8, cmvx, cmvy, &mb.levels[bi], qp, mb.coded[bi])
					bi++
				}
			}
		}
		return nil
	}
	if workers > 1 && mbH > 1 {
		if err := parallel.ForEach(workers, mbH, recRow); err != nil {
			return nil, err
		}
	} else {
		for my := 0; my < mbH; my++ {
			recRow(my)
		}
	}
	return d.finishFrame(), nil
}

// decodeSubGOP decodes the stream with sub-GOP parallelism: a parallel
// entropy pass over every access unit, then chain-ordered reconstruction
// with row-parallel frames. chains must be non-empty and cover the whole
// stream (it opens with a keyframe).
func (e *Encoded) decodeSubGOP(workers int, chains []chainSpan) (*video.Video, error) {
	c := e.Config.withDefaults()
	mbW := (c.Width + 15) / 16
	mbH := (c.Height + 15) / 16

	syms := make([]auSyms, len(e.Frames))
	defer func() {
		for i := range syms {
			putMBs(syms[i].mbs)
		}
	}()

	// Phase 1: every AU parses independently.
	err := parallel.ForEachWorker(workers, len(e.Frames), func(worker, i int) error {
		sp := metrics.StartSpan(metrics.StageEntropy)
		sp.Worker(worker)
		defer sp.End()
		if err := parseAU(e.Frames[i].Data, mbW, mbH, &syms[i]); err != nil {
			return fmt.Errorf("codec: frame %d: %w", i, err)
		}
		sp.Frames(1)
		sp.Bytes(int64(len(e.Frames[i].Data)))
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: chains reconstruct concurrently; within a chain frames are
	// serial (reference dependency) but each frame's rows spread across
	// the workers left over after the chain split.
	rowWorkers := workers / len(chains)
	if rowWorkers < 1 {
		rowWorkers = 1
	}
	decoded := make([][]*video.Frame, len(chains))
	err = parallel.ForEachWorker(workers, len(chains), func(worker, ci int) error {
		dec, err := getDecoder(e.Config)
		if err != nil {
			return err
		}
		defer putDecoder(dec)
		out := make([]*video.Frame, 0, chains[ci].end-chains[ci].start)
		for i := chains[ci].start; i < chains[ci].end; i++ {
			sp := metrics.StartSpan(metrics.StageTransform)
			sp.Worker(worker)
			fr, err := dec.reconstructAU(&syms[i], rowWorkers)
			if err != nil {
				sp.End()
				return fmt.Errorf("codec: frame %d: %w", i, err)
			}
			sp.Frames(1)
			sp.Bytes(int64(len(e.Frames[i].Data)))
			sp.End()
			out = append(out, fr)
		}
		decoded[ci] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := video.NewVideo(c.FPS)
	for _, chain := range decoded {
		for _, fr := range chain {
			out.Append(fr)
		}
	}
	return out, nil
}
