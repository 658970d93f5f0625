package vcd

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/queries"
	"repro/internal/stablehash"
	"repro/internal/vcity"
	"repro/internal/vdbms"
	"repro/internal/video"
)

// BuildBatch creates a query batch of n instances of q: for each
// instance the input video(s) are chosen at random and the free
// parameters drawn uniformly from their Table 3 domains. The VDBMS does
// not participate in parameter selection.
func BuildBatch(ds *Dataset, q queries.QueryID, n int, opt Options) ([]*vdbms.QueryInstance, error) {
	rng := vcity.NewRNG(opt.Seed ^ stablehash.String(string(q)))
	sampler := newParamSampler(opt.Seed^stablehash.String(string(q)+"-params"),
		ds.Manifest.Width, ds.Manifest.Height, ds.Manifest.Duration)
	sampler.MaxUpsamplePixels = opt.MaxUpsamplePixels

	traffic := ds.TrafficCameraIDs()
	if len(traffic) == 0 {
		return nil, fmt.Errorf("vcd: dataset has no traffic cameras")
	}
	panoGroups := ds.PanoGroups()

	var out []*vdbms.QueryInstance
	for i := 0; i < n; i++ {
		inst := &vdbms.QueryInstance{Query: q}
		ctx := sampleContext{InputW: ds.Manifest.Width, InputH: ds.Manifest.Height}
		switch q {
		case queries.Q8:
			// Inputs: the traffic cameras of a random tile; the target
			// plate belongs to a vehicle of that tile.
			tile := rng.Intn(len(ds.City.Tiles))
			for _, id := range traffic {
				in, err := ds.Input(id)
				if err != nil {
					return nil, err
				}
				if in.Camera().Tile == tile {
					inst.Inputs = append(inst.Inputs, in)
				}
			}
			ctx.Plates = ds.TilePlates(tile)
		case queries.Q9:
			if len(panoGroups) == 0 {
				return nil, fmt.Errorf("vcd: dataset has no panoramic cameras")
			}
			group := panoGroups[rng.Intn(len(panoGroups))]
			for _, id := range group {
				in, err := ds.Input(id)
				if err != nil {
					return nil, err
				}
				inst.Inputs = append(inst.Inputs, in)
			}
		case queries.Q10:
			if len(panoGroups) == 0 {
				return nil, fmt.Errorf("vcd: dataset has no panoramic cameras")
			}
			group := panoGroups[rng.Intn(len(panoGroups))]
			in, err := ds.StitchedInput(group)
			if err != nil {
				return nil, err
			}
			inst.Inputs = []*vdbms.Input{in}
			w, h := 0, 0
			if len(in.Encoded.Frames) > 0 {
				w, h = in.Encoded.Config.Width, in.Encoded.Config.Height
			}
			ctx.InputW, ctx.InputH = w, h
		default:
			id := traffic[rng.Intn(len(traffic))]
			in, err := ds.Input(id)
			if err != nil {
				return nil, err
			}
			inst.Inputs = []*vdbms.Input{in}
			if q == queries.Q6b {
				doc, err := CaptionsOf(in)
				if err != nil {
					return nil, err
				}
				ctx.Captions = doc
			}
			if q == queries.Q6a {
				// The bounding box video is generated offline by the
				// VCD (§4.1.1) and staged alongside the input in both
				// interchange formats.
				boxes, err := ds.BoxesFor(in)
				if err != nil {
					return nil, err
				}
				inst.Boxes = boxes
			}
		}
		p, err := sampler.Sample(q, ctx)
		if err != nil {
			return nil, err
		}
		inst.Params = p
		out = append(out, inst)
	}
	return out, nil
}

// StitchedInput returns (computing and caching on first use) the 360°
// video for a panoramic group: U_i = Q9(V_i), built with the reference
// stitcher and re-encoded — the input staging the paper's Q10 requires.
func (d *Dataset) StitchedInput(group []string) (*vdbms.Input, error) {
	key := "stitched:" + group[0]
	d.mu.Lock()
	if in, ok := d.inputs[key]; ok {
		d.mu.Unlock()
		return in, nil
	}
	d.mu.Unlock()

	var vids []*video.Video
	var cams []*vcity.Camera
	var first *vdbms.Input
	for _, id := range group {
		in, err := d.Input(id)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = in
		}
		v, err := vdbms.Decode(in, 0, len(in.Encoded.Frames), nil)
		if err != nil {
			return nil, err
		}
		vids = append(vids, v)
		cams = append(cams, in.Camera())
	}
	stitched, err := queries.RunQ9(vids, cams)
	if err != nil {
		return nil, err
	}
	w, h := stitched.Resolution()
	enc, err := codec.EncodeVideo(stitched, codec.Config{
		Width: w, Height: h, FPS: stitched.FPS, QP: 22,
	})
	if err != nil {
		return nil, err
	}
	in := &vdbms.Input{
		Name:    key,
		Encoded: enc,
		Env:     first.Env,
		Source:  d,
	}
	d.mu.Lock()
	d.inputs[key] = in
	d.mu.Unlock()
	return in, nil
}

// BoxesFor returns (computing and caching on first use) the Q6(a)
// bounding-box input B = Q2c(V) for an input: the VCD applies its
// reference detection implementation offline and exposes the result as
// an encoded video and as serialized box records.
func (d *Dataset) BoxesFor(in *vdbms.Input) (*vdbms.BoxesInput, error) {
	key := "boxes:" + in.Name
	d.mu.Lock()
	if cached, ok := d.boxes[key]; ok {
		d.mu.Unlock()
		return cached, nil
	}
	d.mu.Unlock()

	src, err := vdbms.Decode(in, 0, len(in.Encoded.Frames), nil)
	if err != nil {
		return nil, err
	}
	env := *in.Env
	det := *env.Detector
	det.CostPasses = 0 // offline reference generation is not measured
	env.Detector = &det
	p := queries.Params{
		Algorithm: "yolov2",
		Classes:   []vcity.ObjectClass{vcity.ClassVehicle, vcity.ClassPedestrian},
	}
	dets, err := queries.DetectionsQ2c(src, p, &env)
	if err != nil {
		return nil, err
	}
	w, h := src.Resolution()
	boxVideo := queries.RenderBoxesVideo(w, h, src.FPS, dets, nil)
	enc, err := codec.EncodeVideo(boxVideo, codec.Config{
		Width: w, Height: h, FPS: src.FPS, QP: 6, // near-lossless: ω must survive
	})
	if err != nil {
		return nil, err
	}
	boxes := &vdbms.BoxesInput{
		Encoded:    enc,
		Serialized: queries.SerializeDetections(dets),
	}
	d.mu.Lock()
	if d.boxes == nil {
		d.boxes = make(map[string]*vdbms.BoxesInput)
	}
	d.boxes[key] = boxes
	d.mu.Unlock()
	return boxes, nil
}
