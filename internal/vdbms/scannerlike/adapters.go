package scannerlike

// This file holds the per-query adapter code — the code a user of the
// Scanner-like engine writes to express each benchmark query. The
// paper's Figure 7 counts exactly this per-system code; the engine's
// QueryLOC method reports the line counts of these functions, measured
// from source (see loc.go).

import (
	"fmt"

	"repro/internal/alpr"
	"repro/internal/detect"
	"repro/internal/queries"
	"repro/internal/vcity"
	"repro/internal/vdbms"
	"repro/internal/video"
)

// resizeKernel is Scanner's general resize path: output pixels are
// produced by resampling an arbitrary source region (bilinear when
// enlarging, box-filtered when shrinking — the benchmark's required
// decimation semantics). Cropping (Q1) is expressed as a resize whose
// output size equals the region — the paper's "modified resize
// operator" — which costs a full sampling pass instead of a row copy.
func resizeKernel(f *video.Frame, x1, y1, x2, y2, outW, outH int) *video.Frame {
	region := f.Crop(x1, y1, x2, y2)
	if outW < region.W && outH < region.H {
		return region.Downsample(outW, outH)
	}
	return region.BilinearResize(outW, outH)
}

func (e *Engine) runQ1(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	in := inst.Inputs[0]
	p := inst.Params
	cfg := in.Encoded.Config
	fps := cfg.FPS
	// The [t1, t2) window and spatial box are both part of the plan:
	// ingest only the window's frames, and on tile-mode inputs only the
	// tiles the box touches.
	f1, f2, _ := queries.FrameWindow(inst.Query, p, fps, len(in.Encoded.Frames))
	x1, y1, x2, y2, _ := queries.ROI(inst.Query, p, cfg.Width, cfg.Height)
	t, err := e.loadTableRange(inst.Query, in, f1, f2, vdbms.InputTiles(in, x1, y1, x2, y2))
	if err != nil {
		return err
	}
	defer t.release()
	var selected []*video.Frame
	for i := 0; i < t.len(); i++ {
		f, err := t.row(i)
		if err != nil {
			return err
		}
		selected = append(selected, resizeKernel(f, p.X1, p.Y1, p.X2, p.Y2, p.X2-p.X1, p.Y2-p.Y1))
	}
	out, err := e.newTable(inst.Query, selected, p.X2-p.X1, p.Y2-p.Y1, fps)
	if err != nil {
		return err
	}
	defer out.release()
	return out.emit(sink, "out")
}

func (e *Engine) runQ2a(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	t, err := e.loadTable(inst.Query, inst.Inputs[0])
	if err != nil {
		return err
	}
	defer t.release()
	out, err := e.mapTable(inst.Query, t, func(f *video.Frame) (*video.Frame, error) {
		return f.Grayscale(), nil
	})
	if err != nil {
		return err
	}
	defer out.release()
	return out.emit(sink, "out")
}

func (e *Engine) runQ2b(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	t, err := e.loadTable(inst.Query, inst.Inputs[0])
	if err != nil {
		return err
	}
	defer t.release()
	blurred, err := queries.RunQ2b(tableVideo(t), inst.Params)
	if err != nil {
		return err
	}
	out, err := e.newTable(inst.Query, blurred.Frames, t.w, t.h, t.fps)
	if err != nil {
		return err
	}
	defer out.release()
	return out.emit(sink, "out")
}

// caffeDetector wraps the benchmark detector behind the heavyweight
// framework path Scanner uses (Caffe): two extra convolution passes per
// frame. Detection results are identical; only the cost differs.
func caffeDetector(d *detect.Detector) *detect.Detector {
	heavy := *d
	heavy.CostPasses += 2
	return &heavy
}

func (e *Engine) runQ2c(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	in := inst.Inputs[0]
	t, err := e.loadTable(inst.Query, in)
	if err != nil {
		return err
	}
	defer t.release()
	env := *in.Env
	env.Detector = caffeDetector(in.Env.Detector)
	boxes, err := queries.RunQ2c(tableVideo(t), inst.Params, &env)
	if err != nil {
		return err
	}
	out, err := e.newTable(inst.Query, boxes.Frames, t.w, t.h, t.fps)
	if err != nil {
		return err
	}
	defer out.release()
	return out.emit(sink, "out")
}

func (e *Engine) runQ2d(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	t, err := e.loadTable(inst.Query, inst.Inputs[0])
	if err != nil {
		return err
	}
	defer t.release()
	masked, err := queries.RunQ2d(tableVideo(t), inst.Params)
	if err != nil {
		return err
	}
	out, err := e.newTable(inst.Query, masked.Frames, t.w, t.h, t.fps)
	if err != nil {
		return err
	}
	defer out.release()
	return out.emit(sink, "out")
}

func (e *Engine) runQ3(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	in := inst.Inputs[0]
	t, err := e.loadTable(inst.Query, in)
	if err != nil {
		return err
	}
	defer t.release()
	tiled, err := queries.RunQ3(tableVideo(t), inst.Params, in.Encoded.Config.Preset)
	if err != nil {
		return err
	}
	out, err := e.newTable(inst.Query, tiled.Frames, t.w, t.h, t.fps)
	if err != nil {
		return err
	}
	defer out.release()
	return out.emit(sink, "out")
}

func (e *Engine) runQ4(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	in := inst.Inputs[0]
	p := inst.Params
	cfg := in.Encoded.Config
	// Scanner allocates the entire upsampled output table — plus the
	// framework's working copies (kernel double-buffers and transfer
	// staging, a 4× multiplier) — before executing the kernel; the
	// allocation is what fails ("it quickly allocates all available
	// memory and thereafter fails to make progress").
	outBytes := 4 * frameBytes(cfg.Width*p.Alpha, cfg.Height*p.Beta) * int64(len(in.Encoded.Frames))
	if outBytes > e.opt.HardLimitBytes {
		return &vdbms.ErrResource{
			System: e.Name(), Query: inst.Query,
			Reason: fmt.Sprintf("upsample table of %d MiB: allocated all available memory and failed to make progress", outBytes>>20),
		}
	}
	t, err := e.loadTable(inst.Query, in)
	if err != nil {
		return err
	}
	defer t.release()
	out, err := e.mapTable(inst.Query, t, func(f *video.Frame) (*video.Frame, error) {
		return resizeKernel(f, 0, 0, f.W, f.H, f.W*p.Alpha, f.H*p.Beta), nil
	})
	if err != nil {
		return err
	}
	defer out.release()
	return out.emit(sink, "out")
}

func (e *Engine) runQ5(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	p := inst.Params
	t, err := e.loadTable(inst.Query, inst.Inputs[0])
	if err != nil {
		return err
	}
	defer t.release()
	out, err := e.mapTable(inst.Query, t, func(f *video.Frame) (*video.Frame, error) {
		nw, nh := f.W/p.Alpha, f.H/p.Beta
		if nw < 1 {
			nw = 1
		}
		if nh < 1 {
			nh = 1
		}
		return resizeKernel(f, 0, 0, f.W, f.H, nw, nh), nil
	})
	if err != nil {
		return err
	}
	defer out.release()
	return out.emit(sink, "out")
}

// runQ6a consumes the VCD's precomputed bounding box video (the
// encoded-video interchange format): Scanner ingests it as a second
// table and joins pixel-wise. When no precomputed input is staged the
// engine falls back to generating boxes itself via the detector path.
func (e *Engine) runQ6a(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	in := inst.Inputs[0]
	t, err := e.loadTable(inst.Query, in)
	if err != nil {
		return err
	}
	defer t.release()
	var boxes *video.Video
	if inst.Boxes != nil {
		boxes, err = inst.Boxes.Encoded.DecodeParallel(0)
	} else {
		env := *in.Env
		env.Detector = caffeDetector(in.Env.Detector)
		p := inst.Params
		if len(p.Classes) == 0 {
			p.Classes = []vcity.ObjectClass{vcity.ClassVehicle, vcity.ClassPedestrian}
		}
		p.Algorithm = "yolov2"
		boxes, err = queries.RunQ2c(tableVideo(t), p, &env)
	}
	if err != nil {
		return err
	}
	merged, err := queries.RunQ6a(tableVideo(t), boxes)
	if err != nil {
		return err
	}
	out, err := e.newTable(inst.Query, merged.Frames, t.w, t.h, t.fps)
	if err != nil {
		return err
	}
	defer out.release()
	return out.emit(sink, "out")
}

// renderCaptions is the custom C++-style operator the paper adds to
// Scanner via libwebvtt: straightforward per-cue glyph blits.
func (e *Engine) runQ6b(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	t, err := e.loadTable(inst.Query, inst.Inputs[0])
	if err != nil {
		return err
	}
	defer t.release()
	captioned, err := queries.RunQ6b(tableVideo(t), inst.Params)
	if err != nil {
		return err
	}
	out, err := e.newTable(inst.Query, captioned.Frames, t.w, t.h, t.fps)
	if err != nil {
		return err
	}
	defer out.release()
	return out.emit(sink, "out")
}

func (e *Engine) runQ7(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	in := inst.Inputs[0]
	t, err := e.loadTable(inst.Query, in)
	if err != nil {
		return err
	}
	defer t.release()
	env := *in.Env
	env.Detector = caffeDetector(in.Env.Detector)
	outs, err := queries.RunQ7(tableVideo(t), inst.Params, &env)
	if err != nil {
		return err
	}
	for class, v := range outs {
		ct, err := e.newTable(inst.Query, v.Frames, t.w, t.h, t.fps)
		if err != nil {
			return err
		}
		if err := ct.emit(sink, class); err != nil {
			ct.release()
			return err
		}
		ct.release()
	}
	return nil
}

// runQ8 uses the custom license plate operator (libopenalpr stand-in).
// Scanner materializes all camera tables before scanning, which is the
// dominant cost at scale.
func (e *Engine) runQ8(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	rec := alpr.New()
	var vids []*video.Video
	var envs []*queries.Env
	var tables []*table
	defer func() {
		for _, t := range tables {
			t.release()
		}
	}()
	for _, in := range inst.Inputs {
		t, err := e.loadTable(inst.Query, in)
		if err != nil {
			return err
		}
		tables = append(tables, t)
		vids = append(vids, tableVideo(t))
		envs = append(envs, in.Env)
	}
	out, _, err := queries.RunQ8(vids, envs, rec, inst.Params.Plate)
	if err != nil {
		return err
	}
	return sink.Emit("out", out)
}

func (e *Engine) runQ9(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	if len(inst.Inputs) != 4 {
		return fmt.Errorf("scannerlike: Q9 needs 4 sub-camera inputs, got %d", len(inst.Inputs))
	}
	var vids []*video.Video
	var cams []*vcity.Camera
	var tables []*table
	defer func() {
		for _, t := range tables {
			t.release()
		}
	}()
	for _, in := range inst.Inputs {
		t, err := e.loadTable(inst.Query, in)
		if err != nil {
			return err
		}
		tables = append(tables, t)
		vids = append(vids, tableVideo(t))
		cams = append(cams, in.Camera())
	}
	out, err := queries.RunQ9(vids, cams)
	if err != nil {
		return err
	}
	return sink.Emit("out", out)
}

func (e *Engine) runQ10(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	in := inst.Inputs[0]
	t, err := e.loadTable(inst.Query, in)
	if err != nil {
		return err
	}
	defer t.release()
	out, err := queries.RunQ10(tableVideo(t), inst.Params, in.Encoded.Config.Preset)
	if err != nil {
		return err
	}
	return sink.Emit("out", out)
}

// tableVideo views a table as a video (paging in spilled rows). Rows
// are shallow-copied so Append's index stamping never writes to table
// rows shared with concurrently executing instances.
func tableVideo(t *table) *video.Video {
	v := video.NewVideo(t.fps)
	for i := 0; i < t.len(); i++ {
		f, err := t.row(i)
		if err != nil {
			// Page-in failures surface on the next table operation;
			// substitute a black frame to keep the pipeline total.
			f = video.NewFrame(t.w, t.h)
			f.Index = i
		}
		g := *f
		v.Append(&g)
	}
	return v
}
