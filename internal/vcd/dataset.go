package vcd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/vcg"
	"repro/internal/vcity"
	"repro/internal/vdbms"
	"repro/internal/vfs"
	"repro/internal/video"
	"repro/internal/vtt"
)

// Dataset is a generated Visual Road dataset as staged for benchmarking:
// the manifest, the regenerated city (needed for ground truth — cities
// are pure functions of the hyperparameters, so regeneration is exact
// and cheap), and lazily demuxed inputs.
type Dataset struct {
	Manifest vcg.Manifest
	City     *vcity.City
	Store    vfs.Store

	detectorNoise detect.NoiseModel
	detectorSeed  uint64

	mu     sync.Mutex
	inputs map[string]*vdbms.Input
	boxes  map[string]*vdbms.BoxesInput

	// decoded is the shared decoded-input cache (nil when disabled);
	// staged inputs carry the dataset as their vdbms.DecodedSource so
	// every engine decode routes through it.
	decoded *decodedCache
}

// LoadDataset opens a dataset from a store written by the VCG. The
// detector noise profile selects the simulated model's calibration.
func LoadDataset(store vfs.Store, noise detect.NoiseModel) (*Dataset, error) {
	data, err := vfs.ReadAll(store, "manifest.json")
	if err != nil {
		return nil, fmt.Errorf("vcd: reading manifest: %w", err)
	}
	var man vcg.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("vcd: parsing manifest: %w", err)
	}
	filter, err := vcg.BuildTileFilter(man.WeatherFilter, man.DensityFilter)
	if err != nil {
		return nil, err
	}
	city, err := vcity.Generate(vcity.Hyperparams{
		Scale: man.Scale, Width: man.Width, Height: man.Height,
		Duration: man.Duration, FPS: man.FPS, Seed: man.Seed,
		TileFilter: filter,
	})
	if err != nil {
		return nil, err
	}
	return &Dataset{
		Manifest:      man,
		City:          city,
		Store:         store,
		detectorNoise: noise,
		detectorSeed:  man.Seed ^ 0xde7ec7,
		inputs:        make(map[string]*vdbms.Input),
	}, nil
}

// Input stages the named camera's video (demuxing it on first use) and
// returns it with its execution environment.
func (d *Dataset) Input(cameraID string) (*vdbms.Input, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if in, ok := d.inputs[cameraID]; ok {
		return in, nil
	}
	data, err := vfs.ReadAll(d.Store, vcg.VideoName(cameraID))
	if err != nil {
		return nil, fmt.Errorf("vcd: staging %s: %w", cameraID, err)
	}
	enc, captions, err := container.Demux(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("vcd: demuxing %s: %w", cameraID, err)
	}
	cam, ok := d.City.CameraByID(cameraID)
	if !ok {
		return nil, fmt.Errorf("vcd: manifest video %s has no camera in the city", cameraID)
	}
	in := &vdbms.Input{
		Name:     cameraID,
		Encoded:  enc,
		Captions: captions,
		Env: &queries.Env{
			City:     d.City,
			Camera:   cam,
			Detector: detect.NewYOLO(d.detectorNoise, d.detectorSeed),
		},
		Source: d,
	}
	d.inputs[cameraID] = in
	return in, nil
}

// configureDecodedCache installs (or disables) the shared decoded-input
// cache for a run and returns it (nil when disabled). budget < 0
// disables the cache, 0 selects DefaultDecodedCacheBytes. Reconfiguring
// resets counters.
func (d *Dataset) configureDecodedCache(budget int64) *decodedCache {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.decoded = nil
	if budget >= 0 {
		d.decoded = newDecodedCache(budget)
	}
	return d.decoded
}

func (d *Dataset) decodedCache() *decodedCache {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.decoded
}

// SharedCache implements vdbms.DecodedSource.
func (d *Dataset) SharedCache() bool { return d.decodedCache() != nil }

// Decoded implements vdbms.DecodedSource: serve the request's (frame
// window × tile set) rectangle from the (interval × tile-set)-keyed
// cache when one is active, decoding — from the governing keyframe, the
// selected tiles only — when no resident window covers it; with no
// cache every request decodes directly. A resident full-frame window
// covering the interval serves any tile set without a decode.
func (d *Dataset) Decoded(in *vdbms.Input, req codec.Request) (*video.Video, error) {
	c := d.decodedCache()
	if c == nil || req.Lo >= req.Hi {
		// A degenerate window has its bounds validated by the codec
		// without touching the cache.
		return in.Encoded.DecodeRequest(req)
	}
	return c.acquire(in.Name, req.Lo, req.Hi, tileMask(req.Tiles), in.Encoded.KeyframeBefore, func(lo, hi int) (*video.Video, error) {
		fill := req
		fill.Lo, fill.Hi = lo, hi
		return in.Encoded.DecodeRequest(fill)
	})
}

// tileMask folds a tile index list into the cache's uint64 selection
// mask (the codec caps grids at 64 tiles, so every index fits); the
// empty list — full frames — is mask 0.
func tileMask(tiles []int) uint64 {
	var m uint64
	for _, t := range tiles {
		m |= 1 << uint(t)
	}
	return m
}

// DecodedCacheStats snapshots the shared decoded-input cache counters
// (zero stats when the cache is disabled).
func (d *Dataset) DecodedCacheStats() metrics.CacheStats {
	c := d.decodedCache()
	if c == nil {
		return metrics.CacheStats{}
	}
	return c.stats()
}

// pinInputs pins the frame windows an instance declares on its inputs
// in the decoded cache for the span of its execution, so concurrent
// instances sharing (part of) an input cannot have the covering window
// evicted out from under them. Returns the matching unpin.
func (d *Dataset) pinInputs(inst *vdbms.QueryInstance) func() {
	c := d.decodedCache()
	if c == nil {
		return func() {}
	}
	type pinned struct {
		name   string
		lo, hi int
	}
	pins := make([]pinned, 0, len(inst.Inputs))
	for _, in := range inst.Inputs {
		lo, hi := instanceWindow(inst, in)
		c.pin(in.Name, lo, hi)
		pins = append(pins, pinned{in.Name, lo, hi})
	}
	return func() {
		for _, p := range pins {
			c.unpin(p.name, p.lo, p.hi)
		}
	}
}

// instanceWindow returns the frame window an instance declares on an
// input — the plan-level range the decode layer serves. Degenerate
// windows pin the whole clip (the conservative choice).
func instanceWindow(inst *vdbms.QueryInstance, in *vdbms.Input) (lo, hi int) {
	n := len(in.Encoded.Frames)
	lo, hi, windowed := queries.FrameWindow(inst.Query, inst.Params, in.Encoded.Config.FPS, n)
	if !windowed || hi <= lo {
		return 0, n
	}
	return lo, hi
}

// TrafficCameraIDs returns the dataset's traffic camera IDs in stable
// order.
func (d *Dataset) TrafficCameraIDs() []string {
	var out []string
	for _, v := range d.Manifest.Videos {
		if v.Kind == vcity.TrafficCamera.String() {
			out = append(out, v.CameraID)
		}
	}
	sort.Strings(out)
	return out
}

// PanoGroups returns the panoramic groups: each entry is the four
// sub-camera IDs of one panoramic camera, sub-index order.
func (d *Dataset) PanoGroups() [][]string {
	groups := map[string][]string{}
	for _, v := range d.Manifest.Videos {
		if v.Kind != vcity.PanoramicSubCamera.String() {
			continue
		}
		key := v.CameraID[:strings.LastIndex(v.CameraID, "-sub")]
		groups[key] = append(groups[key], v.CameraID)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]string, 0, len(keys))
	for _, k := range keys {
		ids := groups[k]
		sort.Strings(ids)
		out = append(out, ids)
	}
	return out
}

// TilePlates returns the license plates of all vehicles in the given
// tile — the candidate pool for Q8 parameter sampling.
func (d *Dataset) TilePlates(tile int) []string {
	var out []string
	for _, v := range d.City.Tiles[tile].Vehicles {
		out = append(out, v.Plate)
	}
	return out
}

// CaptionsOf parses the embedded WebVTT track of an input.
func CaptionsOf(in *vdbms.Input) (*vtt.Document, error) {
	if len(in.Captions) == 0 {
		return nil, fmt.Errorf("vcd: input %s has no caption track", in.Name)
	}
	return vtt.Parse(in.Captions)
}
