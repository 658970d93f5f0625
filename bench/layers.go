package main

import (
	"bytes"
	"io"
	"runtime"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/queries"
	"repro/internal/vcd"
	"repro/internal/vcg"
	"repro/internal/vfs"
)

// layerPass times the codec, container and detect layers in isolation on
// one dataset's stored clips: each public function called directly, one
// span per call. Throughputs count raw Y+U+V samples so that encode and
// decode compare.
func layerPass(r *run, w queryWorkload, d *dataset) error {
	tr := r.tr
	const iter = -1 // not part of any iteration
	framePix := rawFrameBytes(dsWidth, dsHeight)
	var decAlloc uint64
	var first *codec.Encoded
	for _, vm := range d.ds.Manifest.Videos {
		data, err := vfs.ReadAll(d.store, vm.Name)
		if err != nil {
			return err
		}
		sp := tr.start("container.demux", 0, iter)
		enc, captions, err := container.Demux(bytes.NewReader(data))
		tr.end(sp, work{Count: 1, Bytes: int64(len(data))})
		if err != nil {
			return err
		}
		if first == nil {
			first = enc
		}
		n := int64(len(enc.Frames))

		a0 := allocBytes()
		sp = tr.start("codec.decode_full", 0, iter)
		_, err = enc.Decode()
		tr.end(sp, work{Count: n, Pix: n * framePix})
		decAlloc += allocBytes() - a0
		if err != nil {
			return err
		}

		sp = tr.start("codec.decode_par", 0, iter)
		_, err = enc.DecodeParallel(runtime.NumCPU())
		tr.end(sp, work{Count: n, Pix: n * framePix})
		if err != nil {
			return err
		}

		sp = tr.start("container.mux", 0, iter)
		err = container.Mux(io.Discard, enc, captions)
		tr.end(sp, work{Count: 1, Bytes: int64(len(data))})
		if err != nil {
			return err
		}
	}

	// Range decode and container seek, on the Q1 windows of plan 0.
	insts, err := vcd.BuildBatch(d.ds, queries.Q1, 16*dsScale, vcd.Options{Seed: subSeed(r.cfg.seed, "plan/0")})
	if err != nil {
		return err
	}
	var decoded, requested int
	for _, inst := range insts {
		in := inst.Inputs[0]
		fps := in.Encoded.Config.FPS
		lo, hi, _ := queries.FrameWindow(queries.Q1, inst.Params, fps, len(in.Encoded.Frames))
		sp := tr.start("codec.decode_range", 0, iter)
		_, err := in.Encoded.DecodeRange(lo, hi)
		tr.end(sp, work{Count: int64(hi - lo)})
		if err != nil {
			return err
		}
		decoded += in.Encoded.RangeCost(lo, hi)
		requested += hi - lo

		data, err := vfs.ReadAll(d.store, vcg.VideoName(in.Name))
		if err != nil {
			return err
		}
		rd := bytes.NewReader(data)
		sp = tr.start("container.seek", 0, iter)
		idx, err := container.ReadIndex(rd)
		if err == nil {
			span := idx.WindowSpan(0, container.Ticks90k(lo, fps), container.Ticks90k(hi, fps))
			_, err = container.ExtractSpan(rd, 0, span)
		}
		tr.end(sp, work{Count: 1})
		if err != nil {
			return err
		}
	}

	// One clip re-encoded as a 2×2 tile grid; decode one tile of the four.
	v0, err := first.Decode()
	if err != nil {
		return err
	}
	tiled, err := codec.EncodeVideo(v0, codec.Config{QP: genOptions.QP, TileRows: 2, TileCols: 2})
	if err != nil {
		return err
	}
	for rep := 0; rep < 5; rep++ {
		sp := tr.start("codec.decode_tiles", 0, iter)
		_, err := tiled.DecodeTiles(1, 0, len(tiled.Frames), []int{0})
		tr.end(sp, work{Count: int64(len(tiled.Frames))})
		if err != nil {
			return err
		}
	}

	if w.engine == "scannerlike" {
		// The detector, on the frames and ground truth of one traffic clip.
		in, err := d.ds.Input(d.ds.TrafficCameraIDs()[0])
		if err != nil {
			return err
		}
		v, err := in.Encoded.Decode()
		if err != nil {
			return err
		}
		tile := in.Env.City.TileOf(in.Env.Camera)
		for i, f := range v.Frames {
			obs := tile.GroundTruth(in.Env.Camera, in.Env.FrameTime(i, v.FPS), f.W, f.H)
			sp := tr.start("detect.detect", 0, iter)
			in.Env.Detector.Detect(f, in.Env.Camera.ID, obs)
			tr.end(sp, work{Count: 1})
		}
	}

	tot := tr.totals()
	full, par := tot.of("codec.decode_full"), tot.of("codec.decode_par")
	r.set("codec.decode_mpix_per_s", ratio(float64(full.Pix)/1e6, full.Total.Seconds()))
	r.set("codec.decode_par_mpix_per_s", ratio(float64(par.Pix)/1e6, par.Total.Seconds()))
	r.set("codec.decode_alloc_kb_per_frame", ratio(float64(decAlloc)/1024, float64(full.Count)))
	r.setMedian("codec.decode_range_ms", tot.of("codec.decode_range").Durs)
	r.set("codec.decode_range_decoded_per_req", ratio(float64(decoded), float64(requested)))
	r.setMedian("codec.decode_tiles_1of4_ms", tot.of("codec.decode_tiles").Durs)
	demux, seek := tot.of("container.demux"), tot.of("container.seek")
	r.set("container.demux_mb_per_s", ratio(float64(demux.Bytes)/1e6, demux.Total.Seconds()))
	r.set("container.seek_us", ratio(seek.Total.Seconds()*1e6, float64(seek.Count)))
	det := tot.of("detect.detect")
	r.set("detect.frame_us", ratio(det.Total.Seconds()*1e6, float64(det.Count)))
	return nil
}
