package vcity

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func testCity(t *testing.T) *City {
	t.Helper()
	city, err := Generate(Hyperparams{Scale: 2, Width: 320, Height: 180, Duration: 5, FPS: 15, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	return city
}

func TestGroundTruthBoxesInsideImage(t *testing.T) {
	city := testCity(t)
	img := geom.Rect{MinX: 0, MinY: 0, MaxX: 320, MaxY: 180}
	for _, cam := range city.AllCameras() {
		tile := city.TileOf(cam)
		for _, obs := range tile.GroundTruth(cam, 1.0, 320, 180) {
			if obs.Box.Empty() {
				t.Fatalf("%s: empty ground truth box", cam.ID)
			}
			if obs.Box.Intersect(img) != obs.Box {
				t.Fatalf("%s: box %+v extends outside image", cam.ID, obs.Box)
			}
			if obs.Visibility <= 0 || obs.Visibility > 1 {
				t.Fatalf("%s: visibility %v out of range", cam.ID, obs.Visibility)
			}
			if obs.Depth <= 0 {
				t.Fatalf("%s: non-positive depth %v", cam.ID, obs.Depth)
			}
		}
	}
}

func TestGroundTruthDeterministic(t *testing.T) {
	city := testCity(t)
	cam := city.TrafficCameras()[0]
	tile := city.TileOf(cam)
	a := tile.GroundTruth(cam, 2.5, 320, 180)
	b := tile.GroundTruth(cam, 2.5, 320, 180)
	if len(a) != len(b) {
		t.Fatalf("counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Box != b[i].Box || a[i].Object.ID != b[i].Object.ID {
			t.Fatalf("observation %d differs", i)
		}
	}
}

func TestGroundTruthChangesOverTime(t *testing.T) {
	city := testCity(t)
	moved := false
	for _, cam := range city.TrafficCameras() {
		tile := city.TileOf(cam)
		a := tile.GroundTruth(cam, 0, 320, 180)
		b := tile.GroundTruth(cam, 4, 320, 180)
		if len(a) != len(b) {
			moved = true
			break
		}
		for i := range a {
			if a[i].Box != b[i].Box {
				moved = true
				break
			}
		}
	}
	if !moved {
		t.Error("no object moved in 4 seconds across any camera")
	}
}

func TestSegmentHitsAABB(t *testing.T) {
	lo := geom.Vec3{X: 0, Y: 0, Z: 0}
	hi := geom.Vec3{X: 10, Y: 10, Z: 10}
	cases := []struct {
		a, b geom.Vec3
		want bool
	}{
		// Straight through the box.
		{geom.Vec3{X: -5, Y: 5, Z: 5}, geom.Vec3{X: 15, Y: 5, Z: 5}, true},
		// Entirely outside, parallel.
		{geom.Vec3{X: -5, Y: 20, Z: 5}, geom.Vec3{X: 15, Y: 20, Z: 5}, false},
		// Over the top.
		{geom.Vec3{X: -5, Y: 5, Z: 15}, geom.Vec3{X: 15, Y: 5, Z: 15}, false},
		// Segment ends before reaching the box.
		{geom.Vec3{X: -10, Y: 5, Z: 5}, geom.Vec3{X: -1, Y: 5, Z: 5}, false},
		// Diagonal through a corner region.
		{geom.Vec3{X: -1, Y: -1, Z: -1}, geom.Vec3{X: 11, Y: 11, Z: 11}, true},
	}
	for i, c := range cases {
		if got := segmentHitsAABB(c.a, c.b, lo, hi); got != c.want {
			t.Errorf("case %d: segmentHitsAABB = %v, want %v", i, got, c.want)
		}
	}
}

func TestOcclusionReducesVisibility(t *testing.T) {
	// Build a synthetic tile: one building directly between camera and
	// object.
	layout := &TileLayout{
		Spec: TileSpec{Weather: WeatherConfigs[0], Density: Densities[0]},
		Buildings: []Building{{
			Min: geom.Vec2{X: 40, Y: -10}, Max: geom.Vec2{X: 60, Y: 10}, Height: 50,
		}},
	}
	tile := &Tile{Layout: layout}
	cam := &Camera{Pos: geom.Vec3{X: 0, Y: 0, Z: 5}, Yaw: 0, Pitch: 0, FOVDeg: 60}
	blocked := SceneObject{Center: geom.Vec3{X: 100, Y: 0, Z: 1}, HalfL: 2, HalfW: 1, HalfH: 1}
	clear := SceneObject{Center: geom.Vec3{X: 100, Y: 60, Z: 1}, HalfL: 2, HalfW: 1, HalfH: 1}
	vb := tile.visibility(cam, &blocked)
	vc := tile.visibility(cam, &clear)
	if vb >= vc {
		t.Errorf("blocked visibility %v should be below clear %v", vb, vc)
	}
	if vb > 0.2 {
		t.Errorf("fully blocked object has visibility %v", vb)
	}
}

func TestPlateAtFacingGate(t *testing.T) {
	city := testCity(t)
	tile := city.Tiles[0]
	cam := city.TrafficCameras()[0]
	v := tile.Vehicles[0]
	// Scan a few seconds; identifiability must only occur when the
	// vehicle faces the camera.
	for f := 0; f < 60; f++ {
		tm := float64(f) / 15
		obs := tile.PlateAt(cam, tm, v, 320, 180)
		if !obs.Identifiable {
			continue
		}
		pos, heading := v.PositionAt(tm)
		front := geom.Vec2{X: math.Cos(heading), Y: math.Sin(heading)}
		toCam := geom.Vec2{X: cam.Pos.X - pos.X, Y: cam.Pos.Y - pos.Y}.Norm()
		if front.Dot(toCam) < 0.3 { // cos 70° ≈ 0.34 with slack
			t.Errorf("plate identifiable while facing away (dot=%v)", front.Dot(toCam))
		}
		if obs.Box.W() < minPlatePixelWidth {
			t.Errorf("identifiable plate smaller than %d px: %v", minPlatePixelWidth, obs.Box.W())
		}
	}
}

// TestPlateObservabilitySweep checks plate observability across a
// spread of seeds. Individual small cities may expose no identifiable
// plates at all (a one-camera layout can simply never see a vehicle
// head-on), so the assertions are about the sweep: most seeds yield
// identifiable plate-frames spanning multiple vehicles, and the
// facing/size gate keeps the identifiable fraction far below
// saturation everywhere.
func TestPlateObservabilitySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed generation sweep")
	}
	seedsWithHits, seedsMultiVehicle := 0, 0
	for _, seed := range []uint64{9, 42, 77, 123, 500} {
		city, err := Generate(Hyperparams{Scale: 1, Width: 480, Height: 270, Duration: 4, FPS: 15, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tile := city.Tiles[0]
		count, total := 0, 0
		vehSeen := map[int]bool{}
		for _, cam := range city.TrafficCameras() {
			for f := 0; f < 60; f++ {
				tm := float64(f) / 15
				for _, v := range tile.Vehicles {
					total++
					if tile.PlateAt(cam, tm, v, 480, 270).Identifiable {
						count++
						vehSeen[v.ID] = true
					}
				}
			}
		}
		if count > 0 {
			seedsWithHits++
		}
		if len(vehSeen) >= 2 {
			seedsMultiVehicle++
		}
		if count*10 > total {
			t.Errorf("seed %d: %d/%d plate-frames identifiable; gate should reject most candidates",
				seed, count, total)
		}
	}
	if seedsWithHits < 3 {
		t.Errorf("only %d/5 seeds produced identifiable plate-frames", seedsWithHits)
	}
	if seedsMultiVehicle < 2 {
		t.Errorf("only %d/5 seeds identified multiple distinct vehicles", seedsMultiVehicle)
	}
}

func TestCameraProjectBehind(t *testing.T) {
	cam := &Camera{Pos: geom.Vec3{Z: 5}, Yaw: 0, Pitch: 0, FOVDeg: 90}
	if _, _, _, ok := cam.Project(geom.Vec3{X: -10, Y: 0, Z: 5}, 100, 100); ok {
		t.Error("point behind the camera should not project")
	}
}

func TestCameraProjectCenter(t *testing.T) {
	cam := &Camera{Pos: geom.Vec3{Z: 5}, Yaw: 0, Pitch: 0, FOVDeg: 90}
	sx, sy, depth, ok := cam.Project(geom.Vec3{X: 50, Y: 0, Z: 5}, 200, 100)
	if !ok {
		t.Fatal("forward point should project")
	}
	if sx != 100 || sy != 50 {
		t.Errorf("center projection = (%v, %v), want (100, 50)", sx, sy)
	}
	if depth != 50 {
		t.Errorf("depth = %v, want 50", depth)
	}
}

func TestCameraBasisOrthonormal(t *testing.T) {
	cam := &Camera{Yaw: 0.7, Pitch: -0.3}
	f, r, u := cam.Basis()
	for name, v := range map[string]float64{
		"f·r": f.Dot(r), "f·u": f.Dot(u), "r·u": r.Dot(u),
	} {
		if v > 1e-9 || v < -1e-9 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
	for name, v := range map[string]float64{"|f|": f.Len(), "|r|": r.Len(), "|u|": u.Len()} {
		if v < 0.999 || v > 1.001 {
			t.Errorf("%s = %v, want 1", name, v)
		}
	}
}
