// Package vcg implements the Visual City Generator: it accepts the
// benchmark hyperparameters (scale L, resolution R, duration t, seed s),
// constructs a Visual City, renders every camera's video, encodes each
// with the configured codec, muxes results (with a randomly generated
// WebVTT caption track for Q6(b)) into container files on a storage
// backend, and emits the manifest and metadata needed for verification.
//
// The VCG supports single-node and distributed generation. In
// distributed mode, N worker nodes each independently simulate and
// capture the tiles they are responsible for — generation requires no
// coordination between cameras, which is why the paper observes linear
// speedup with node count (Figure 9).
package vcg

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/render"
	"repro/internal/stablehash"
	"repro/internal/vcity"
	"repro/internal/vfs"
	"repro/internal/video"
	"repro/internal/vtt"
)

// Profile selects the capture post-processing applied to rendered
// frames.
type Profile int

// Capture profiles.
const (
	// ProfileSynthetic is the plain Visual Road rendering.
	ProfileSynthetic Profile = iota
	// ProfileRecorded emulates recorded real-world footage (the
	// UA-DETRAC stand-in): sensor noise, slight desaturation, and
	// per-frame gain wobble, giving the corpus real-video statistics.
	ProfileRecorded
)

// Options configure a generation run.
type Options struct {
	// Preset is the output codec (default H264).
	Preset codec.Preset
	// QP is the constant quantization parameter (default 26) used when
	// BitrateKbps is zero.
	QP int
	// BitrateKbps, when nonzero, enables rate-controlled encoding.
	BitrateKbps int
	// Nodes is the number of simulated generation nodes (default 1).
	// Nodes is an accounting partition — it controls how per-camera work
	// is attributed in Result.NodeTimes/ClusterElapsed (Figure 9), not
	// how many goroutines run. Process-local parallelism is Workers.
	Nodes int
	// Workers bounds this process's parallelism: cameras are generated
	// concurrently on a pool of this many workers, and each camera's
	// encoder parallelizes motion estimation across the same count.
	// Zero selects parallel.Default(). Output bytes are identical at
	// every worker count.
	Workers int
	// Sequential disables all process-local parallelism: nodes and
	// their cameras execute one after another on the calling goroutine,
	// with a serial render→encode loop per camera. This is the
	// contention-free measurement mode used by the Figure 9 experiments,
	// where each simulated node's work time must be measured as if the
	// node were a dedicated machine.
	Sequential bool
	// Profile is the capture post-processing profile.
	Profile Profile
	// Captions enables embedding a generated WebVTT track per video.
	Captions bool
	// WeatherFilter restricts the tile pool by precipitation:
	// "" or "any" (no restriction), "dry", or "rain". Recorded in the
	// manifest so loading reproduces the same city.
	WeatherFilter string
	// DensityFilter restricts the tile pool by density name ("Sparse",
	// "Moderate", "RushHour"); "" or "any" admits all.
	DensityFilter string
	// TileRows × TileCols, when their product exceeds 1, encode every
	// video in tile mode: frames split into a grid of independently
	// decodable tiles, so ROI queries reconstruct only the tiles they
	// touch. Zero (or 1×1) keeps the untiled bitstream, bit-identical to
	// earlier generators.
	TileRows, TileCols int
}

// BuildTileFilter converts the serializable weather/density filter
// strings into a tile predicate (nil when unrestricted).
func BuildTileFilter(weather, density string) (func(vcity.TileSpec) bool, error) {
	if weather == "" {
		weather = "any"
	}
	if density == "" {
		density = "any"
	}
	if weather == "any" && density == "any" {
		return nil, nil
	}
	var weatherOK func(vcity.TileSpec) bool
	switch weather {
	case "any":
		weatherOK = func(vcity.TileSpec) bool { return true }
	case "dry":
		weatherOK = func(s vcity.TileSpec) bool { return s.Weather.Precip == vcity.Dry }
	case "rain":
		weatherOK = func(s vcity.TileSpec) bool { return s.Weather.Precip != vcity.Dry }
	default:
		return nil, fmt.Errorf("vcg: unknown weather filter %q", weather)
	}
	if density != "any" {
		names, known := []string{"any"}, false
		for _, d := range vcity.Densities {
			names = append(names, d.Name)
			known = known || d.Name == density
		}
		if !known {
			return nil, fmt.Errorf("vcg: unknown density filter %q (valid: %s)", density, strings.Join(names, ", "))
		}
	}
	return func(s vcity.TileSpec) bool {
		return weatherOK(s) && (density == "any" || s.Density.Name == density)
	}, nil
}

func (o Options) withDefaults() Options {
	if o.Preset.ID == 0 {
		o.Preset = codec.PresetH264
	}
	if o.QP == 0 {
		o.QP = 26
	}
	if o.Nodes <= 0 {
		o.Nodes = 1
	}
	if o.Workers <= 0 {
		o.Workers = parallel.Default()
	}
	if o.Sequential {
		o.Workers = 1
	}
	return o
}

// VideoMeta describes one generated video in the manifest.
type VideoMeta struct {
	Name     string `json:"name"`
	CameraID string `json:"camera_id"`
	Kind     string `json:"kind"`
	Tile     int    `json:"tile"`
	Frames   int    `json:"frames"`
	Bytes    int    `json:"bytes"`
}

// Manifest records a generated dataset: the hyperparameters and the
// videos produced. It is stored alongside the videos as
// "manifest.json".
type Manifest struct {
	Scale    int     `json:"scale"`
	Width    int     `json:"width"`
	Height   int     `json:"height"`
	Duration float64 `json:"duration_seconds"`
	FPS      int     `json:"fps"`
	Seed     uint64  `json:"seed"`
	Codec    string  `json:"codec"`
	// Tile-pool filters (empty = unrestricted); needed to regenerate
	// the identical city when the dataset is loaded.
	WeatherFilter string      `json:"weather_filter,omitempty"`
	DensityFilter string      `json:"density_filter,omitempty"`
	Videos        []VideoMeta `json:"videos"`
}

// Result summarizes a generation run.
type Result struct {
	City     *vcity.City
	Manifest Manifest
	// Elapsed is the wall-clock time of this process.
	Elapsed time.Duration
	// NodeTimes is the per-node work time: the sum of each node's
	// camera processing durations. In a real deployment the nodes are
	// independent machines, so the cluster completes when the slowest
	// node does — see ClusterElapsed.
	NodeTimes []time.Duration
}

// ClusterElapsed is the simulated distributed completion time: the
// maximum per-node work time. On a multi-core host it coincides with
// the observed wall clock; on a single-core host it reports what an
// actual node-per-machine deployment would achieve, since generation
// requires no coordination between nodes.
func (r *Result) ClusterElapsed() time.Duration {
	var max time.Duration
	for _, t := range r.NodeTimes {
		if t > max {
			max = t
		}
	}
	return max
}

// VideoName returns the storage object name for a camera's video.
func VideoName(cameraID string) string { return cameraID + ".vrmf" }

// Generate runs the VCG: build the city, render, encode, mux, store.
func Generate(p vcity.Hyperparams, opt Options, store vfs.Store) (*Result, error) {
	opt = opt.withDefaults()
	start := time.Now()
	if p.TileFilter == nil && (opt.WeatherFilter != "" || opt.DensityFilter != "") {
		filter, err := BuildTileFilter(opt.WeatherFilter, opt.DensityFilter)
		if err != nil {
			return nil, err
		}
		p.TileFilter = filter
	}
	city, err := vcity.Generate(p)
	if err != nil {
		return nil, err
	}
	p = city.Params // with defaults applied

	cams := city.AllCameras()
	type camResult struct {
		meta VideoMeta
		err  error
	}
	results := make([]camResult, len(cams))
	camWork := make([]time.Duration, len(cams))

	// Cameras are assigned to nodes round-robin, which balances load
	// across tiles of differing agent density. (Each camera capture is
	// an independent simulation pass, so any partition is coordination-
	// free, as in the paper's EC2 deployment.) By default the cameras
	// run concurrently on a bounded pool of opt.Workers goroutines —
	// output bytes are independent of scheduling, and per-node work is
	// still accounted as the sum of each node's per-camera durations,
	// so ClusterElapsed keeps reporting max(node work). Sequential mode
	// instead executes node after node, camera after camera, on this
	// goroutine, so each node's work time is measured without CPU
	// contention from its peers — the Figure 9 measurement mode, where
	// every simulated node is its own machine.
	//
	// Each worker keeps one renderer and one frame pool for all the
	// cameras it is handed, so render memory is O(workers × pixels)
	// whatever the camera count; a frame is a pure function of (camera,
	// t), so which worker renders a camera cannot show in the bytes.
	stages := make([]camStage, opt.Workers)
	runCamera := func(worker, ci int) {
		camStart := time.Now()
		st := &stages[worker]
		if st.r == nil {
			st.r = render.New(city, p.Width, p.Height)
			st.pool = video.NewFramePool(p.Width, p.Height)
		}
		meta, err := generateCamera(city, cams[ci], opt, store, st)
		camWork[ci] = time.Since(camStart)
		results[ci] = camResult{meta: meta, err: err}
	}
	if opt.Sequential {
		for node := 0; node < opt.Nodes; node++ {
			for ci := range cams {
				if ci%opt.Nodes == node {
					runCamera(0, ci)
				}
			}
		}
	} else {
		parallel.ForEachWorker(opt.Workers, len(cams), func(worker, ci int) error {
			runCamera(worker, ci)
			return nil
		})
	}
	nodeTimes := make([]time.Duration, opt.Nodes)
	for ci := range cams {
		nodeTimes[ci%opt.Nodes] += camWork[ci]
	}

	man := Manifest{
		Scale: p.Scale, Width: p.Width, Height: p.Height,
		Duration: p.Duration, FPS: p.FPS, Seed: p.Seed,
		Codec:         opt.Preset.Name,
		WeatherFilter: opt.WeatherFilter,
		DensityFilter: opt.DensityFilter,
	}
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		man.Videos = append(man.Videos, r.meta)
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := store.Write("manifest.json", data); err != nil {
		return nil, err
	}
	return &Result{
		City: city, Manifest: man,
		Elapsed: time.Since(start), NodeTimes: nodeTimes,
	}, nil
}

// pipeDepth bounds how many rendered frames may sit between the
// renderer and the encoder of one camera. Peak frame memory per camera
// is pipeDepth+2 frames (one being rendered, pipeDepth buffered, one
// being encoded) regardless of clip duration, versus the whole clip
// when capture and encode were separate passes.
const pipeDepth = 3

// camStage is what one generate worker carries from camera to camera:
// the renderer (whose static layer it rebuilds per camera) and the pool
// its frames cycle through.
type camStage struct {
	r    *render.Renderer
	pool *video.FramePool
}

// generateCamera renders, post-processes, encodes, and stores one
// camera's video. Rendering and encoding run as a streaming pipeline:
// the renderer produces frames into a bounded channel and the encoder
// consumes them in order, with frame buffers recycled through a pool.
// In Sequential mode the same loop runs on the calling goroutine.
func generateCamera(city *vcity.City, cam *vcity.Camera, opt Options, store vfs.Store, st *camStage) (VideoMeta, error) {
	p := city.Params
	cfg := codec.Config{
		Width: p.Width, Height: p.Height, FPS: p.FPS,
		Preset: opt.Preset, QP: opt.QP, BitrateKbps: opt.BitrateKbps,
		Workers:  opt.Workers,
		TileRows: opt.TileRows, TileCols: opt.TileCols,
	}
	n := p.FrameCount()
	if n == 0 {
		return VideoMeta{}, fmt.Errorf("vcg: camera %s: cannot encode empty video", cam.ID)
	}
	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		return VideoMeta{}, fmt.Errorf("vcg: camera %s: %w", cam.ID, err)
	}
	defer enc.Release()
	r, pool := st.r, st.pool
	recSeed := p.Seed ^ stablehash.String(cam.ID)
	renderFrame := func(i int) *video.Frame {
		sp := metrics.StartSpan(metrics.StageRender)
		f := pool.Get()
		f.Index = i
		r.FrameInto(cam, float64(i)/float64(p.FPS), f)
		if opt.Profile == ProfileRecorded {
			applyRecordedFrame(f, recSeed, i)
		}
		sp.Frames(1)
		sp.End()
		return f
	}
	out := &codec.Encoded{Config: enc.Config()}
	encodeFrame := func(f *video.Frame) error {
		sp := metrics.StartSpan(metrics.StageEncode)
		ef, err := enc.Encode(f)
		pool.Put(f)
		if err != nil {
			return err
		}
		out.Frames = append(out.Frames, ef)
		sp.Frames(1)
		sp.Bytes(int64(len(ef.Data)))
		sp.End()
		return nil
	}
	if opt.Sequential {
		for i := 0; i < n; i++ {
			if err := encodeFrame(renderFrame(i)); err != nil {
				return VideoMeta{}, fmt.Errorf("vcg: camera %s: %w", cam.ID, err)
			}
		}
	} else {
		err := parallel.Pipe(pipeDepth, func(emit func(*video.Frame) error) error {
			for i := 0; i < n; i++ {
				if err := emit(renderFrame(i)); err != nil {
					return err
				}
			}
			return nil
		}, encodeFrame)
		if err != nil {
			return VideoMeta{}, fmt.Errorf("vcg: camera %s: %w", cam.ID, err)
		}
	}
	var captions []byte
	if opt.Captions {
		captions = vtt.Marshal(GenerateCaptions(cam.ID, p.Duration, p.Seed))
	}
	var buf writeCounter
	if err := container.Mux(&buf, out, captions); err != nil {
		return VideoMeta{}, fmt.Errorf("vcg: camera %s: %w", cam.ID, err)
	}
	name := VideoName(cam.ID)
	if err := store.Write(name, buf.data); err != nil {
		return VideoMeta{}, fmt.Errorf("vcg: camera %s: %w", cam.ID, err)
	}
	return VideoMeta{
		Name:     name,
		CameraID: cam.ID,
		Kind:     cam.Kind.String(),
		Tile:     cam.Tile,
		Frames:   len(out.Frames),
		Bytes:    len(buf.data),
	}, nil
}

// GenerateCaptions produces the random WebVTT document the VCD overlays
// in Q6(b): one annotation roughly every three seconds, with randomly
// varied position and non-overlapping durations.
func GenerateCaptions(cameraID string, duration float64, seed uint64) *vtt.Document {
	rng := vcity.NewRNG(seed ^ stablehash.String(cameraID) ^ 0xcaf7105)
	doc := &vtt.Document{}
	t := rng.Range(0.2, 1.0)
	i := 0
	for t < duration {
		d := rng.Range(0.8, 2.4)
		if t+d > duration {
			d = duration - t
		}
		if d < 0.2 {
			break
		}
		doc.Cues = append(doc.Cues, vtt.Cue{
			Start:    t,
			End:      t + d,
			Line:     rng.Range(5, 90),
			Position: rng.Range(10, 90),
			Text:     fmt.Sprintf("CAM %s EVENT %d", cameraID, i),
		})
		t += d + rng.Range(0.4, 1.6)
		i++
	}
	return doc
}

// applyRecordedFrame adds deterministic sensor noise, gain wobble, and
// desaturation to frame fi in place. The RNG is seeded per frame, so
// the result depends only on (seed, fi) — not on which goroutine
// rendered the frame or in what order.
func applyRecordedFrame(f *video.Frame, seed uint64, fi int) {
	rng := vcity.NewRNG(seed + uint64(fi)*0x9e3779b97f4a7c15)
	gain := 1 + rng.Gaussian(0, 0.015)
	for i := range f.Y {
		n := rng.Gaussian(0, 2.2)
		val := (float64(f.Y[i])-16)*gain + 16 + n
		if val < 0 {
			val = 0
		}
		if val > 255 {
			val = 255
		}
		f.Y[i] = byte(val)
	}
	for i := range f.U {
		f.U[i] = desat(f.U[i])
		f.V[i] = desat(f.V[i])
	}
}

// desat pulls a chroma sample 12% toward neutral.
func desat(c byte) byte {
	return byte(128 + (int(c)-128)*88/100)
}

// writeCounter buffers writes in memory.
type writeCounter struct {
	data []byte
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}
