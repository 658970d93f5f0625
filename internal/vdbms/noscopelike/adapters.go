package noscopelike

// Per-query adapter code. NoScope exposes a narrow Python-style API, so
// invoking it takes only a few lines — reproduced in the brevity of
// these adapters (QueryLOC counts them from source; see loc.go).

import (
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/render"
	"repro/internal/vcity"
	"repro/internal/vdbms"
	"repro/internal/video"
)

func (e *Engine) runQ1(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	in := inst.Inputs[0]
	p := inst.Params
	cfg := in.Encoded.Config
	n := len(in.Encoded.Frames)
	// Validate against the whole clip's geometry, then decode only the
	// frame window the plan declares.
	if err := (&p).Validate(queries.Q1, cfg.Width, cfg.Height, float64(n)/float64(cfg.FPS)); err != nil {
		return err
	}
	f1, f2, _ := queries.FrameWindow(inst.Query, p, cfg.FPS, n)
	// The spatial box is part of the plan too: on tile-mode inputs only
	// the tiles the ROI touches are reconstructed.
	x1, y1, x2, y2, _ := queries.ROI(inst.Query, p, cfg.Width, cfg.Height)
	v, err := vdbms.Decode(in, f1, f2, vdbms.InputTiles(in, x1, y1, x2, y2))
	if err != nil {
		return err
	}
	out, err := queries.RunQ1On(v, p)
	if err != nil {
		return err
	}
	return sink.Emit("out", out)
}

func (e *Engine) runQ2c(inst *vdbms.QueryInstance, sink vdbms.Sink) error {
	in := inst.Inputs[0]
	v, err := vdbms.Decode(in, 0, len(in.Encoded.Frames), nil)
	if err != nil {
		return err
	}
	dets, err := e.cascadeDetect(v, inst, in)
	if err != nil {
		return err
	}
	out := renderBoxes(v, dets, inst.Params.Classes)
	return sink.Emit("out", out)
}

// cascadeDetect is the NoScope inference cascade: the specialized model
// runs only on frames the difference detector flags as changed; stable
// frames reuse the previous result.
func (e *Engine) cascadeDetect(v *video.Video, inst *vdbms.QueryInstance, in *vdbms.Input) ([][]metrics.Detection, error) {
	env := in.Env
	tile := env.City.TileOf(env.Camera)
	specialized := *env.Detector
	specialized.CostPasses = 2 // distilled model: half the conv stack
	fps := in.Encoded.Config.FPS

	out := make([][]metrics.Detection, len(v.Frames))
	var ref *video.Frame
	var last []metrics.Detection
	for i, f := range v.Frames {
		if e.opt.Cascade && ref != nil && e.diffScore(f, ref) < e.opt.DiffThreshold {
			out[i] = last
			continue
		}
		t := env.FrameTime(i, fps)
		obs := tile.GroundTruth(env.Camera, t, f.W, f.H)
		last = specialized.Detect(f, env.Camera.ID, obs)
		out[i] = last
		ref = f
	}
	return out, nil
}

// renderBoxes produces the Q2(c) output frames: class colors inside
// detected boxes, ω elsewhere.
func renderBoxes(v *video.Video, dets [][]metrics.Detection, classes []vcity.ObjectClass) *video.Video {
	want := map[string]bool{}
	for _, c := range classes {
		want[c.String()] = true
	}
	out := video.NewVideo(v.FPS)
	for i, f := range v.Frames {
		bf := video.NewFrame(f.W, f.H)
		bf.Index = i
		for _, d := range dets[i] {
			if !want[d.Class] {
				continue
			}
			cls := vcity.ClassVehicle
			if d.Class == vcity.ClassPedestrian.String() {
				cls = vcity.ClassPedestrian
			}
			render.FillRect(bf, d.Box, queries.ClassColor(cls))
		}
		out.Append(bf)
	}
	return out
}
