package render

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/vcity"
)

// objectFaces is the number of faces drawObjects queues for o when the
// cull lets it through: appendFace keeps only faces it draws.
func objectFaces(r *Renderer, o *vcity.SceneObject) int {
	r.faces, r.order = r.faces[:0], r.order[:0]
	r.appendObjectFaces(o)
	return len(r.faces)
}

// straddlers returns synthetic objects whose bounding spheres lie just
// beyond, across and inside each of the view's five cull planes in
// turn: vehicles with and without a plate and pedestrians, at random
// headings, on the ground or in the air, so that box corners and plates
// reach each plane from every side.
func straddlers(rng *rand.Rand, v *view, n int) []vcity.SceneObject {
	out := make([]vcity.SceneObject, n)
	for i := range out {
		o := &out[i]
		o.Class, o.Plate, o.Heading = vcity.ClassVehicle, "ABC123", rng.Float64()*2*math.Pi
		o.HalfL, o.HalfW, o.HalfH = 1.5+rng.Float64()*2, 0.8+rng.Float64()*0.4, 0.6+rng.Float64()*0.8
		switch rng.IntN(3) {
		case 1:
			o.Plate = ""
		case 2:
			o.Class, o.Plate = vcity.ClassPedestrian, ""
			o.HalfL, o.HalfW, o.HalfH = 0.25, 0.25, 0.8+rng.Float64()*0.2
		}
		// A point of the view cone, slid along the plane's normal onto
		// the plane and then off it by up to 1.2 cull radii outward.
		p := &v.planes[i%len(v.planes)]
		z := 0.1 + rng.ExpFloat64()*15
		if i%len(v.planes) == 0 {
			z = 0.1 + rng.Float64()*2 // near the near plane, where the cone is narrow
		}
		d := v.fwd.Scale(z).
			Add(v.right.Scale((rng.Float64()*2 - 1) * 1.2 * z * v.halfW / v.focal)).
			Add(v.up.Scale((rng.Float64()*2 - 1) * 1.2 * z * v.halfH / v.focal))
		o.Center = v.pos.Add(d)
		if rng.IntN(2) == 0 {
			o.Center.Z = o.HalfH // on the ground, as the city's objects are
		}
		s := cullRadius(o) * (rng.Float64()*1.7 - 1.2)
		o.Center = o.Center.Add(p.n.Scale(s - (o.Center.Sub(v.pos).Dot(p.n) - p.off)))
	}
	return out
}

// TestObjectCullIsConservative holds the cull in drawObjects to its
// claim: an object it skips is one of whose faces appendFace would have
// kept none, so skipping it changes no face, no sort key and no pixel.
// It asks every camera of four Scale-3 cities at three resolutions, for
// the city's own objects at many instants and for synthetic objects
// straddling each cull plane.
func TestObjectCullIsConservative(t *testing.T) {
	rng := rand.New(rand.NewPCG(39, 1))
	culled, straddled, drawn, failures := 0, 0, 0, 0
	check := func(r *Renderer, cam *vcity.Camera, tm float64, o *vcity.SceneObject) bool {
		if !r.view.outside(o.Center, cullRadius(o)) {
			return false
		}
		culled++
		if n := objectFaces(r, o); n != 0 && failures < 10 {
			failures++
			t.Errorf("%s %dx%d t=%v: culled %v at %+v (half %.2f×%.2f×%.2f, heading %.3f, plate %q) queues %d faces",
				cam.ID, r.w, r.h, tm, o.Class, o.Center, o.HalfL, o.HalfW, o.HalfH, o.Heading, o.Plate, n)
		}
		return true
	}
	for _, seed := range []uint64{1, 4, 6, 9} {
		city, err := vcity.Generate(vcity.Hyperparams{Scale: 3, Width: 192, Height: 108, Duration: 1, FPS: 15, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var objs []vcity.SceneObject
		for _, size := range [][2]int{{192, 108}, {97, 55}, {960, 540}} {
			for _, cam := range city.AllCameras() {
				r := &Renderer{w: size[0], h: size[1], view: newView(cam, size[0], size[1])}
				for i := 0; i < 12; i++ {
					tm := rng.Float64()*40 - 5
					objs = city.TileOf(cam).AppendObjectsAt(objs[:0], tm)
					for j := range objs {
						check(r, cam, tm, &objs[j])
					}
				}
				for _, o := range straddlers(rng, &r.view, 500) {
					if check(r, cam, 0, &o) {
						straddled++
					} else if objectFaces(r, &o) > 0 {
						drawn++
					}
				}
			}
		}
	}
	// Were no kept straddler on screen, the planes could sit anywhere
	// outside the image and the test would still pass.
	if culled == straddled || straddled == 0 || drawn == 0 {
		t.Fatalf("culled %d objects, %d of them synthetic; %d kept synthetic objects queue a face: the test asks nothing", culled, straddled, drawn)
	}
	t.Logf("%d objects culled, %d of them straddlers, none queueing a face; %d kept straddlers queue one", culled, straddled, drawn)
}
