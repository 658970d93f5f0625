package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/render"
	"repro/internal/vcg"
	"repro/internal/vcity"
	"repro/internal/vfs"
	"repro/internal/vtt"
)

// generateCity runs the generator on the city of the given seed into a
// fresh memory store and checks the manifest's shape.
func generateCity(seed uint64) (*vcg.Result, *vfs.Memory, error) {
	store := vfs.NewMemory()
	res, err := vcg.Generate(hyperparams(seed), genOptions, store)
	if err != nil {
		return nil, nil, err
	}
	if len(res.Manifest.Videos) != dsClips {
		return nil, nil, fmt.Errorf("generated %d clips, want %d", len(res.Manifest.Videos), dsClips)
	}
	for _, v := range res.Manifest.Videos {
		if v.Frames != dsFrames {
			return nil, nil, fmt.Errorf("clip %s has %d frames, want %d", v.Name, v.Frames, dsFrames)
		}
	}
	return res, store, nil
}

func clipBytes(res *vcg.Result) int64 {
	var n int64
	for _, v := range res.Manifest.Videos {
		n += int64(v.Bytes)
	}
	return n
}

// runGenerate is the VCG workload: every iteration generates a different
// seeded city, so the medians are over cities and no single draw decides
// them.
func runGenerate(r *run) error {
	// Set-up: the generator has no inputs to build beyond its
	// hyperparameters, so a set-up is one untimed warm-up generation
	// (frame pools, lazily built tables).
	var setupS []float64
	for k := 0; k < r.cfg.setups; k++ {
		t0 := time.Now()
		if _, _, err := generateCity(subSeed(r.cfg.seed, fmt.Sprintf("generate/warm/%d", k))); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	r.setMedian("setup_s", setupS)

	// Gates: generating iteration 0's city twice gives identical bytes,
	// and every clip demuxes and decodes to the manifest's frame count.
	city0 := subSeed(r.cfg.seed, "generate/0")
	ref, refStore, err := generateCity(city0)
	if err != nil {
		return err
	}
	refDigest, err := storeDigest(refStore)
	if err != nil {
		return err
	}
	if r.cfg.corrupt {
		refDigest = "corrupt-" + refDigest
	}
	for _, v := range ref.Manifest.Videos {
		data, err := vfs.ReadAll(refStore, v.Name)
		if err != nil {
			return err
		}
		enc, _, err := container.Demux(bytes.NewReader(data))
		frames := 0
		if err == nil {
			if dec, derr := enc.Decode(); derr == nil {
				frames = len(dec.Frames)
			} else {
				err = derr
			}
		}
		r.check(err == nil && frames == v.Frames, "clip %s decodes to %d frames, manifest says %d (%v)", v.Name, frames, v.Frames, err)
	}

	if r.cfg.trace {
		return traceGenerate(r)
	}

	var batchS, clipMS, ratio []float64
	r.budget(1)
	for i := 0; r.timed(i); i++ {
		seed := subSeed(r.cfg.seed, fmt.Sprintf("generate/%d", i))
		t0 := time.Now()
		res, store, err := generateCity(seed)
		wall := time.Since(t0)
		if !r.check(err == nil, "generate iteration %d: %v", i, err) {
			continue
		}
		if i == 0 {
			d, derr := storeDigest(store)
			r.check(derr == nil && d == refDigest, "iteration 0 digest %s differs from the reference generation %s (%v)", d, refDigest, derr)
		}
		batchS = append(batchS, wall.Seconds())
		var clips []float64 // one request = one camera's clip
		for _, nt := range res.NodeTimes {
			clips = append(clips, nt.Seconds()*1e3)
		}
		clipMS = append(clipMS, median(clips))
		ratio = append(ratio, float64(clipBytes(res))/float64(dsRawBytes))
	}
	r.setTiming("batch_s", batchS)
	r.setTiming("latency_p50_ms", clipMS)
	r.setMedian("stored_bytes_per_raw_byte", ratio)
	return nil
}

// serialGenerate re-executes the generator's plan decomposed: the
// harness calls each layer's public function itself, serially, with a
// span around every call. It returns the pass's wall-clock and the store
// it filled, whose bytes must equal the real generator's.
func serialGenerate(tr *tracer, seed uint64, iter int) (time.Duration, *vfs.Memory, error) {
	t0 := time.Now()
	it := tr.start("generate.serial", 0, iter)
	hp := hyperparams(seed)
	var err error
	if hp.TileFilter, err = vcg.BuildTileFilter(genOptions.WeatherFilter, genOptions.DensityFilter); err != nil {
		return 0, nil, err
	}
	sp := tr.start("vcity.generate", it, iter)
	city, err := vcity.Generate(hp)
	tr.end(sp, work{Count: 1})
	if err != nil {
		return 0, nil, err
	}
	p := city.Params
	store := vfs.NewMemory()
	for _, cam := range city.AllCameras() {
		sp = tr.start("render.capture", it, iter)
		v := render.CaptureFrames(city, cam, 0, p.FrameCount())
		tr.end(sp, work{Count: int64(len(v.Frames)), Pix: int64(len(v.Frames)) * rawFrameBytes(p.Width, p.Height)})

		a0 := tr.allocs()
		sp = tr.start("codec.encode", it, iter)
		enc, err := codec.EncodeVideo(v, codec.Config{Width: p.Width, Height: p.Height, FPS: p.FPS, Preset: codec.PresetH264, QP: genOptions.QP})
		if err != nil {
			return 0, nil, err
		}
		n := int64(len(enc.Frames))
		tr.end(sp, work{Count: n, Bytes: int64(enc.Size()), Pix: n * rawFrameBytes(p.Width, p.Height), Alloc: tr.allocs() - a0})

		captions := vtt.Marshal(vcg.GenerateCaptions(cam.ID, p.Duration, p.Seed))
		var buf bytes.Buffer
		sp = tr.start("container.mux", it, iter)
		err = container.Mux(&buf, enc, captions)
		tr.end(sp, work{Count: 1, Bytes: int64(buf.Len())})
		if err != nil {
			return 0, nil, err
		}
		if err := store.Write(vcg.VideoName(cam.ID), buf.Bytes()); err != nil {
			return 0, nil, err
		}
	}
	tr.end(it, work{Count: dsClips * dsFrames})
	return time.Since(t0), store, nil
}

// traceGenerate is the traced pass of the generate workload.
func traceGenerate(r *run) error {
	var realS, overlap, traceFrac, clipMS []float64
	off := newTracer(false)
	r.budget(1)
	for i := 0; r.timed(i); i++ {
		seed := subSeed(r.cfg.seed, fmt.Sprintf("generate/%d", i))
		sp := r.tr.start("vcg.generate", 0, i)
		t0 := time.Now()
		res, store, err := generateCity(seed)
		wall := time.Since(t0)
		r.tr.end(sp, work{Count: dsClips * dsFrames})
		if !r.check(err == nil, "generate iteration %d: %v", i, err) {
			continue
		}
		realS = append(realS, wall.Seconds())
		for _, nt := range res.NodeTimes {
			clipMS = append(clipMS, nt.Seconds()*1e3)
		}
		// The decomposed pass with and without the recorder, in alternating
		// order so that neither side always runs on the warmer process.
		var took [2]time.Duration
		var serial *vfs.Memory
		for _, on := range []bool{i%2 == 0, i%2 != 0} {
			tr := off
			if on {
				tr = r.tr
			}
			if took[btoi(on)], serial, err = serialGenerate(tr, seed, i); err != nil {
				return err
			}
		}
		// The decomposition is faithful only if it writes the clips the
		// generator writes.
		same := true
		for _, v := range res.Manifest.Videos {
			a, _ := vfs.ReadAll(store, v.Name)
			b, _ := vfs.ReadAll(serial, v.Name)
			same = same && len(a) > 0 && bytes.Equal(a, b)
		}
		r.check(same, "serial pass of iteration %d wrote different clips than vcg.Generate", i)
		// Paired per city, so that city-to-city variation cancels.
		overlap = append(overlap, ratio(took[1].Seconds(), wall.Seconds()))
		traceFrac = append(traceFrac, ratio(took[1].Seconds(), took[0].Seconds())-1)
	}

	tot := r.tr.totals()
	r.setMedian("vcity.generate_ms", tot.of("vcity.generate").Durs)
	render := tot.of("render.capture")
	r.set("render.frame_us", ratio(render.Total.Seconds()*1e6, float64(render.Count)))
	r.set("render.mpix_per_s", ratio(float64(render.Pix)/1e6, render.Total.Seconds()))
	r.setEncode(tot)
	r.set("vcg.frames_per_s", ratio(dsClips*dsFrames, median(realS)))
	// Σ serial layer time ÷ the generator's wall-clock: what its worker
	// pool and render→encode pipeline overlap.
	r.setMedian("vcg.overlap_ratio", overlap)
	r.setPercentile("vcg.clip_p95_ms", clipMS, 95)
	r.setMedian("bench.trace_overhead_frac", traceFrac)
	return nil
}

// setEncode reports the encoder and muxer metrics from their spans; the
// generator encodes rendered clips (QP 22), the query driver results (QP 18).
func (r *run) setEncode(tot totals) {
	enc := tot.of("codec.encode")
	r.set("codec.encode_frame_us", ratio(enc.Total.Seconds()*1e6, float64(enc.Count)))
	r.set("codec.encode_mpix_per_s", ratio(float64(enc.Pix)/1e6, enc.Total.Seconds()))
	r.set("codec.encode_alloc_kb_per_frame", ratio(float64(enc.Alloc)/1024, float64(enc.Count)))
	r.set("codec.bytes_per_raw_byte", ratio(float64(enc.Bytes), float64(enc.Pix)))
	mux := tot.of("container.mux")
	r.set("container.mux_mb_per_s", ratio(float64(mux.Bytes)/1e6, mux.Total.Seconds()))
}
