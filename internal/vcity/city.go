package vcity

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/video"
)

// Hyperparams are the four user-facing generation parameters of the
// benchmark — scale factor L, resolution R, duration t, and seed s —
// plus the frame rate and per-tile camera configuration, which the
// Visual Road 1.0 prototype fixes at 30 FPS and {4 traffic, 1 panoramic}.
//
// TileFilter implements the extensibility the paper anticipates for
// future versions ("testing only on tiles with sunny weather or
// changing the density of the cameras in individual tiles"): when set,
// tiles are drawn only from the pool entries the predicate accepts.
type Hyperparams struct {
	Scale    int     // L: number of tiles
	Width    int     // R_x
	Height   int     // R_y
	Duration float64 // seconds of video per camera
	FPS      int
	Seed     uint64
	Cameras  CameraConfig
	// TileFilter restricts the tile pool; nil admits all 72 tiles.
	// The filter changes which tiles are drawn but not the draw
	// sequence, so filtered and unfiltered datasets with the same seed
	// remain independently reproducible.
	TileFilter func(TileSpec) bool `json:"-"`
}

// WithDefaults fills unset fields with the prototype defaults.
func (p Hyperparams) WithDefaults() Hyperparams {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.Width <= 0 || p.Height <= 0 {
		p.Width, p.Height = 960, 540
	}
	if p.Duration <= 0 {
		p.Duration = 10
	}
	if p.FPS <= 0 {
		p.FPS = 30
	}
	if p.Cameras == (CameraConfig{}) {
		p.Cameras = DefaultCameraConfig
	}
	return p
}

// Validate reports whether the hyperparameters are usable.
func (p Hyperparams) Validate() error {
	if p.Scale <= 0 {
		return fmt.Errorf("vcity: scale factor must be positive, got %d", p.Scale)
	}
	if p.Width <= 0 || p.Height <= 0 {
		return fmt.Errorf("vcity: invalid resolution %dx%d", p.Width, p.Height)
	}
	if p.Duration <= 0 {
		return fmt.Errorf("vcity: duration must be positive, got %g", p.Duration)
	}
	if p.FPS < 15 || p.FPS > 90 {
		return fmt.Errorf("vcity: frame rate %d outside supported range 15-90", p.FPS)
	}
	return nil
}

// FrameCount returns the number of frames each camera captures.
func (p Hyperparams) FrameCount() int {
	return int(math.Round(p.Duration * float64(p.FPS)))
}

// Tile is one instantiated tile of Visual City: its static layout plus
// the spawned agents and placed cameras.
type Tile struct {
	Index       int
	Layout      *TileLayout
	Vehicles    []*Vehicle
	Pedestrians []*Pedestrian
	Cameras     []*Camera
}

// City is a generated Visual City: a disconnected set of tiles.
type City struct {
	Params Hyperparams
	Tiles  []*Tile
}

// Generate constructs a City from the hyperparameters. Identical
// hyperparameters always yield identical cities (agents, cameras, and
// layouts included); this is the reproducibility contract of the
// benchmark's seed parameter.
func Generate(p Hyperparams) (*City, error) {
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	root := NewRNG(p.Seed)
	pool := TilePool()
	if p.TileFilter != nil {
		filtered := pool[:0]
		for _, spec := range pool {
			if p.TileFilter(spec) {
				filtered = append(filtered, spec)
			}
		}
		if len(filtered) == 0 {
			return nil, fmt.Errorf("vcity: tile filter admits no tiles")
		}
		pool = filtered
	}
	city := &City{Params: p}
	for i := 0; i < p.Scale; i++ {
		trng := root.SplitN("tile", i)
		spec := pool[trng.Intn(len(pool))]
		layout := buildLayout(spec, trng.Split("layout"))
		tile := &Tile{
			Index:       i,
			Layout:      layout,
			Vehicles:    spawnVehicles(layout, trng.Split("vehicles")),
			Pedestrians: spawnPedestrians(layout, trng.Split("pedestrians")),
			Cameras:     placeCameras(i, layout, p.Cameras, trng.Split("cameras")),
		}
		city.Tiles = append(city.Tiles, tile)
	}
	return city, nil
}

// AllCameras returns every camera in the city in a stable order.
func (c *City) AllCameras() []*Camera {
	var out []*Camera
	for _, t := range c.Tiles {
		out = append(out, t.Cameras...)
	}
	return out
}

// TrafficCameras returns every traffic camera in the city.
func (c *City) TrafficCameras() []*Camera {
	var out []*Camera
	for _, t := range c.Tiles {
		for _, cam := range t.Cameras {
			if cam.Kind == TrafficCamera {
				out = append(out, cam)
			}
		}
	}
	return out
}

// CameraByID finds a camera by its identifier.
func (c *City) CameraByID(id string) (*Camera, bool) {
	for _, t := range c.Tiles {
		for _, cam := range t.Cameras {
			if cam.ID == id {
				return cam, true
			}
		}
	}
	return nil, false
}

// SceneObject is a dynamic object's pose at a specific instant: an
// oriented box on the ground plane.
type SceneObject struct {
	Class   ObjectClass
	ID      int
	Plate   string // vehicles only
	Color   video.Color
	Center  geom.Vec3 // box center (Z = half height)
	HalfL   float64   // half length along heading
	HalfW   float64   // half width across heading
	HalfH   float64
	Heading float64
}

// Corners returns the eight corners of the object's oriented box.
func (o *SceneObject) Corners() [8]geom.Vec3 {
	var out [8]geom.Vec3
	c, s := math.Cos(o.Heading), math.Sin(o.Heading)
	i := 0
	for _, dl := range [2]float64{-o.HalfL, o.HalfL} {
		for _, dw := range [2]float64{-o.HalfW, o.HalfW} {
			x := o.Center.X + dl*c - dw*s
			y := o.Center.Y + dl*s + dw*c
			for _, dz := range [2]float64{-o.HalfH, o.HalfH} {
				out[i] = geom.Vec3{X: x, Y: y, Z: o.Center.Z + dz}
				i++
			}
		}
	}
	return out
}

// ObjectsAt returns the poses of all dynamic objects in the tile at
// simulation time t (seconds).
func (t *Tile) ObjectsAt(time float64) []SceneObject {
	return t.AppendObjectsAt(make([]SceneObject, 0, len(t.Vehicles)+len(t.Pedestrians)), time)
}

// AppendObjectsAt appends the poses ObjectsAt returns to dst, so a
// caller asking frame after frame can reuse one slice.
func (t *Tile) AppendObjectsAt(dst []SceneObject, time float64) []SceneObject {
	for _, v := range t.Vehicles {
		pos, heading := v.PositionAt(time)
		dst = append(dst, SceneObject{
			Class:   ClassVehicle,
			ID:      v.ID,
			Plate:   v.Plate,
			Color:   v.Color,
			Center:  geom.Vec3{X: pos.X, Y: pos.Y, Z: v.HeightM / 2},
			HalfL:   v.Length / 2,
			HalfW:   v.WidthM / 2,
			HalfH:   v.HeightM / 2,
			Heading: heading,
		})
	}
	for _, p := range t.Pedestrians {
		pos, heading := p.PositionAt(time)
		dst = append(dst, SceneObject{
			Class:   ClassPedestrian,
			ID:      p.ID,
			Color:   p.Color,
			Center:  geom.Vec3{X: pos.X, Y: pos.Y, Z: p.HeightM / 2},
			HalfL:   0.25,
			HalfW:   0.25,
			HalfH:   p.HeightM / 2,
			Heading: heading,
		})
	}
	return dst
}

// TileOf returns the tile owning the given camera.
func (c *City) TileOf(cam *Camera) *Tile { return c.Tiles[cam.Tile] }
