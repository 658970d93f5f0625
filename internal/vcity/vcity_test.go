package vcity

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// PanoramicGroups returns, per tile, the groups of four sub-cameras
// composing each panoramic camera, keyed by "tile<i>-pano<j>".
func (c *City) PanoramicGroups() map[string][]*Camera {
	groups := make(map[string][]*Camera)
	for _, t := range c.Tiles {
		for _, cam := range t.Cameras {
			if cam.Kind != PanoramicSubCamera {
				continue
			}
			// The sub index is the trailing "-subN"; group by the prefix.
			key := cam.ID[:len(cam.ID)-5]
			groups[key] = append(groups[key], cam)
		}
	}
	return groups
}

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
}

func TestRNGSplitIndependentOfParentState(t *testing.T) {
	a := NewRNG(42)
	s1 := a.Split("x")
	a.Uint64() // advancing the parent...
	s2 := NewRNG(42).Split("x")
	for i := 0; i < 10; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatal("Split must not depend on parent stream position after seeding")
		}
	}
}

func TestRNGSplitLabelsDiffer(t *testing.T) {
	a := NewRNG(1).Split("vehicles")
	b := NewRNG(1).Split("pedestrians")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between differently-labeled streams", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGGaussianMoments(t *testing.T) {
	r := NewRNG(99)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Gaussian(5, 2)
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sq/float64(n) - mean*mean)
	if math.Abs(mean-5) > 0.1 {
		t.Errorf("Gaussian mean = %v, want ~5", mean)
	}
	if math.Abs(std-2) > 0.1 {
		t.Errorf("Gaussian stddev = %v, want ~2", std)
	}
}

func TestTilePoolSize(t *testing.T) {
	pool := TilePool()
	if len(pool) != PoolSize || PoolSize != 72 {
		t.Fatalf("pool has %d tiles, want 72", len(pool))
	}
	seen := map[string]bool{}
	for _, s := range pool {
		if seen[s.String()] {
			t.Errorf("duplicate tile spec %s", s)
		}
		seen[s.String()] = true
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Hyperparams{Scale: 2, Width: 64, Height: 64, Duration: 1, FPS: 15, Seed: 5}
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tiles) != len(b.Tiles) {
		t.Fatal("tile counts differ")
	}
	for i := range a.Tiles {
		ta, tb := a.Tiles[i], b.Tiles[i]
		if ta.Layout.Spec != tb.Layout.Spec {
			t.Errorf("tile %d spec differs", i)
		}
		if len(ta.Vehicles) != len(tb.Vehicles) {
			t.Fatalf("tile %d vehicle counts differ", i)
		}
		for j := range ta.Vehicles {
			if ta.Vehicles[j].Plate != tb.Vehicles[j].Plate {
				t.Errorf("tile %d vehicle %d plate differs", i, j)
			}
			pa, ha := ta.Vehicles[j].PositionAt(0.5)
			pb, hb := tb.Vehicles[j].PositionAt(0.5)
			if pa != pb || ha != hb {
				t.Errorf("tile %d vehicle %d trajectory differs", i, j)
			}
		}
		for j := range ta.Cameras {
			if *ta.Cameras[j] != *tb.Cameras[j] {
				t.Errorf("tile %d camera %d differs", i, j)
			}
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a, _ := Generate(Hyperparams{Scale: 1, Seed: 1})
	b, _ := Generate(Hyperparams{Scale: 1, Seed: 2})
	if a.Tiles[0].Vehicles[0].Plate == b.Tiles[0].Vehicles[0].Plate &&
		a.Tiles[0].Vehicles[1].Plate == b.Tiles[0].Vehicles[1].Plate {
		t.Error("different seeds produced identical vehicle plates")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Hyperparams{Scale: 1, FPS: 5, Width: 10, Height: 10, Duration: 1}); err == nil {
		t.Error("FPS below 15 should be rejected")
	}
	if _, err := Generate(Hyperparams{Scale: -1}); err != nil {
		t.Error("non-positive scale should be defaulted, not rejected")
	}
}

func TestCameraCounts(t *testing.T) {
	city, err := Generate(Hyperparams{Scale: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	traffic := city.TrafficCameras()
	if len(traffic) != 3*4 {
		t.Errorf("%d traffic cameras, want 12", len(traffic))
	}
	all := city.AllCameras()
	if len(all) != 3*(4+4) {
		t.Errorf("%d cameras total, want 24 (4 traffic + 4 pano subs per tile)", len(all))
	}
	groups := city.PanoramicGroups()
	if len(groups) != 3 {
		t.Errorf("%d panoramic groups, want 3", len(groups))
	}
	for key, g := range groups {
		if len(g) != 4 {
			t.Errorf("group %s has %d sub-cameras, want 4", key, len(g))
		}
	}
}

func TestTrafficCameraHeights(t *testing.T) {
	city, _ := Generate(Hyperparams{Scale: 4, Seed: 31})
	for _, cam := range city.AllCameras() {
		switch cam.Kind {
		case TrafficCamera:
			if cam.Pos.Z < 10 || cam.Pos.Z > 20 {
				t.Errorf("traffic camera %s at height %.1f, want 10-20 m", cam.ID, cam.Pos.Z)
			}
		case PanoramicSubCamera:
			if cam.Pos.Z < 5 || cam.Pos.Z > 10 {
				t.Errorf("panoramic camera %s at height %.1f, want 5-10 m", cam.ID, cam.Pos.Z)
			}
			if cam.FOVDeg != 120 {
				t.Errorf("panoramic sub-camera FOV %.0f, want 120", cam.FOVDeg)
			}
		}
	}
}

func TestPanoramicSubCamerasCover360(t *testing.T) {
	city, _ := Generate(Hyperparams{Scale: 1, Seed: 3})
	for _, group := range city.PanoramicGroups() {
		// The four yaws must be 90° apart.
		base := group[0].Yaw
		for i, cam := range group {
			want := base + float64(i)*math.Pi/2
			got := cam.Yaw
			diff := math.Abs(math.Mod(got-want+3*math.Pi, 2*math.Pi) - math.Pi)
			if diff > 1e-9 {
				t.Errorf("sub %d yaw offset wrong: got %v, want %v", i, got, want)
			}
		}
	}
}

func TestVehicleStaysOnLoop(t *testing.T) {
	city, _ := Generate(Hyperparams{Scale: 1, Seed: 17})
	v := city.Tiles[0].Vehicles[0]
	for _, tm := range []float64{0, 1.5, 10, 100, 1000} {
		pos, _ := v.PositionAt(tm)
		onX := math.Abs(pos.X-v.loop.MinX) < 1e-9 || math.Abs(pos.X-v.loop.MaxX) < 1e-9
		onY := math.Abs(pos.Y-v.loop.MinY) < 1e-9 || math.Abs(pos.Y-v.loop.MaxY) < 1e-9
		inX := pos.X >= v.loop.MinX-1e-9 && pos.X <= v.loop.MaxX+1e-9
		inY := pos.Y >= v.loop.MinY-1e-9 && pos.Y <= v.loop.MaxY+1e-9
		if !((onX && inY) || (onY && inX)) {
			t.Errorf("vehicle at t=%v off its loop: %+v", tm, pos)
		}
	}
}

func TestPointOnLoopContinuity(t *testing.T) {
	f := func(p float64, ccw bool) bool {
		r := geom.Rect{MinX: 10, MinY: 20, MaxX: 60, MaxY: 90}
		p = math.Mod(math.Abs(p), 1000)
		a, _ := pointOnLoop(r, p, ccw)
		b, _ := pointOnLoop(r, p+0.01, ccw)
		// Small parameter steps move small distances (continuity).
		return a.Sub(b).Len() < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPointOnLoopWrapsExactly(t *testing.T) {
	r := geom.Rect{MinX: 10, MinY: 20, MaxX: 60, MaxY: 90}
	per := perimeter(r)
	a, _ := pointOnLoop(r, 5, true)
	b, _ := pointOnLoop(r, 5+per, true)
	if a.Sub(b).Len() > 1e-9 {
		t.Errorf("loop did not wrap: %v vs %v", a, b)
	}
}

func TestPlatesAreSixAlnum(t *testing.T) {
	city, _ := Generate(Hyperparams{Scale: 2, Seed: 8})
	seen := map[string]int{}
	for _, tile := range city.Tiles {
		for _, v := range tile.Vehicles {
			if len(v.Plate) != 6 {
				t.Fatalf("plate %q not 6 chars", v.Plate)
			}
			for i := 0; i < 6; i++ {
				ok := false
				for j := 0; j < len(plateAlphabet); j++ {
					if v.Plate[i] == plateAlphabet[j] {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("plate %q has invalid char %q", v.Plate, v.Plate[i])
				}
			}
			seen[v.Plate]++
		}
	}
	// Plates should be (nearly) unique across the city.
	for p, n := range seen {
		if n > 1 {
			t.Logf("plate %s appears %d times (acceptable collision)", p, n)
		}
	}
}

func TestDensityMatchesSpec(t *testing.T) {
	city, _ := Generate(Hyperparams{Scale: 6, Seed: 44})
	for _, tile := range city.Tiles {
		d := tile.Layout.Spec.Density
		if len(tile.Vehicles) != d.Vehicles {
			t.Errorf("tile %d: %d vehicles, spec says %d", tile.Index, len(tile.Vehicles), d.Vehicles)
		}
		if len(tile.Pedestrians) != d.Pedestrians {
			t.Errorf("tile %d: %d pedestrians, spec says %d", tile.Index, len(tile.Pedestrians), d.Pedestrians)
		}
	}
}

func TestRushHourDensityMatchesPaper(t *testing.T) {
	var rush *Density
	for i := range Densities {
		if Densities[i].Name == "RushHour" {
			rush = &Densities[i]
		}
	}
	if rush == nil {
		t.Fatal("no RushHour density")
	}
	if rush.Vehicles != 120 || rush.Pedestrians != 512 {
		t.Errorf("RushHour = %+v, paper says 120 vehicles and 512 pedestrians", rush)
	}
}

func TestFrameCount(t *testing.T) {
	p := Hyperparams{Scale: 1, Duration: 2, FPS: 30}.WithDefaults()
	if got := p.FrameCount(); got != 60 {
		t.Errorf("FrameCount = %d, want 60", got)
	}
}

func TestCameraByID(t *testing.T) {
	city, _ := Generate(Hyperparams{Scale: 2, Seed: 5})
	cam := city.AllCameras()[3]
	got, ok := city.CameraByID(cam.ID)
	if !ok || got != cam {
		t.Errorf("CameraByID(%s) = %v, %v", cam.ID, got, ok)
	}
	if _, ok := city.CameraByID("nope"); ok {
		t.Error("CameraByID should miss unknown IDs")
	}
}

func TestMaterialAt(t *testing.T) {
	city, _ := Generate(Hyperparams{Scale: 1, Seed: 2})
	l := city.Tiles[0].Layout
	// Outside the tile: grass.
	if m := l.MaterialAt(-10, 50); m != MatGrass {
		t.Errorf("out of bounds material = %v, want grass", m)
	}
	// On a road centerline (away from dashes): road or lane mark.
	r := l.Roads[0]
	var x, y float64
	if r.Horizontal() {
		x, y = 101, r.A.Y
	} else {
		x, y = r.A.X, 101
	}
	if m := l.MaterialAt(x, y); m != MatRoad && m != MatLaneMark {
		t.Errorf("centerline material = %v, want road/lane", m)
	}
	// Just past the road edge: sidewalk.
	if r.Horizontal() {
		y = r.A.Y + r.Width/2 + 1
	} else {
		x = r.A.X + r.Width/2 + 1
	}
	if m := l.MaterialAt(x, y); m != MatSidewalk {
		t.Errorf("edge material = %v, want sidewalk", m)
	}
}

func TestObjectsAtCount(t *testing.T) {
	city, _ := Generate(Hyperparams{Scale: 1, Seed: 10})
	tile := city.Tiles[0]
	objs := tile.ObjectsAt(3)
	if len(objs) != len(tile.Vehicles)+len(tile.Pedestrians) {
		t.Errorf("ObjectsAt returned %d, want %d", len(objs), len(tile.Vehicles)+len(tile.Pedestrians))
	}
}

// TestAppendObjectsAtReusesSlice pins what the renderer's steady state
// relies on: appending into a slice that already has the capacity
// allocates nothing and yields exactly ObjectsAt's poses.
func TestAppendObjectsAtReusesSlice(t *testing.T) {
	city, _ := Generate(Hyperparams{Scale: 1, Seed: 10})
	tile := city.Tiles[0]
	buf := tile.AppendObjectsAt(nil, 0)
	tm := 0.0
	if allocs := testing.AllocsPerRun(20, func() {
		tm += 0.1
		buf = tile.AppendObjectsAt(buf[:0], tm)
	}); allocs != 0 {
		t.Errorf("%.1f allocations per AppendObjectsAt into a reused slice, want 0", allocs)
	}
	if want := tile.ObjectsAt(tm); !reflect.DeepEqual(buf, want) {
		t.Error("AppendObjectsAt and ObjectsAt disagree at the same instant")
	}
}

func TestSceneObjectCorners(t *testing.T) {
	o := SceneObject{
		Center: geom.Vec3{X: 10, Y: 20, Z: 1}, HalfL: 2, HalfW: 1, HalfH: 1, Heading: 0,
	}
	corners := o.Corners()
	minX, maxX := math.Inf(1), math.Inf(-1)
	for _, c := range corners {
		minX = math.Min(minX, c.X)
		maxX = math.Max(maxX, c.X)
	}
	if math.Abs(minX-8) > 1e-9 || math.Abs(maxX-12) > 1e-9 {
		t.Errorf("X extent [%v, %v], want [8, 12]", minX, maxX)
	}
}

func TestTileFilterRestrictsPool(t *testing.T) {
	sunny := func(s TileSpec) bool { return s.Weather.Precip == Dry }
	city, err := Generate(Hyperparams{Scale: 8, Seed: 3, TileFilter: sunny})
	if err != nil {
		t.Fatal(err)
	}
	for _, tile := range city.Tiles {
		if tile.Layout.Spec.Weather.Precip != Dry {
			t.Errorf("tile %d has %s weather despite the sunny filter",
				tile.Index, tile.Layout.Spec.Weather.Name)
		}
	}
}

func TestTileFilterEmptyPoolFails(t *testing.T) {
	never := func(TileSpec) bool { return false }
	if _, err := Generate(Hyperparams{Scale: 1, TileFilter: never}); err == nil {
		t.Error("a filter admitting no tiles should fail")
	}
}

func TestTileFilterDeterministic(t *testing.T) {
	rush := func(s TileSpec) bool { return s.Density.Name == "RushHour" }
	a, err := Generate(Hyperparams{Scale: 3, Seed: 7, TileFilter: rush})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Hyperparams{Scale: 3, Seed: 7, TileFilter: rush})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Tiles {
		if a.Tiles[i].Layout.Spec != b.Tiles[i].Layout.Spec {
			t.Fatal("filtered generation not deterministic")
		}
		if a.Tiles[i].Layout.Spec.Density.Name != "RushHour" {
			t.Error("filter violated")
		}
	}
}

func TestCustomCameraConfig(t *testing.T) {
	city, err := Generate(Hyperparams{
		Scale: 1, Seed: 5, Cameras: CameraConfig{Traffic: 2, Panoramic: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(city.TrafficCameras()); n != 2 {
		t.Errorf("%d traffic cameras, want 2", n)
	}
	if n := len(city.PanoramicGroups()); n != 2 {
		t.Errorf("%d panoramic groups, want 2", n)
	}
}
