package vdbms_test

import (
	"bytes"
	"testing"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/queries"
	"repro/internal/vcity"
	"repro/internal/vdbms"
	"repro/internal/vdbms/lightdblike"
	"repro/internal/vdbms/scannerlike"
	"repro/internal/vdbms/vdbmstest"
	"repro/internal/video"
)

func samePixels(t *testing.T, label string, want, got *video.Video) {
	t.Helper()
	if len(want.Frames) != len(got.Frames) {
		t.Fatalf("%s: %d frames, want %d", label, len(got.Frames), len(want.Frames))
	}
	for i, w := range want.Frames {
		g := got.Frames[i]
		if w.W != g.W || w.H != g.H || !bytes.Equal(w.Y, g.Y) || !bytes.Equal(w.U, g.U) || !bytes.Equal(w.V, g.V) {
			t.Fatalf("%s: frame %d differs from the reference", label, i)
		}
	}
}

// TestEnginesRunTheReferenceKernels holds the engines' Q2(b), Q2(d) and
// Q6(a) outputs to the reference implementations byte for byte — the
// validator only asks for a PSNR, which a kernel that is nearly right
// passes. Figure 5 compares engines on these queries; they must differ in
// how they decode, stage and schedule, not in what they compute.
func TestEnginesRunTheReferenceKernels(t *testing.T) {
	fx := vdbmstest.NewFixture(t, 11)
	in := fx.Traffic(0)
	decoded, err := vdbms.Decode(in, 0, len(in.Encoded.Frames), nil)
	if err != nil {
		t.Fatal(err)
	}
	w, h := decoded.Resolution()
	run := func(sys vdbms.System, inst *vdbms.QueryInstance) *video.Video {
		t.Helper()
		sink := vdbmstest.NewCollectSink()
		if err := sys.Execute(inst, sink); err != nil {
			t.Fatalf("%s %s: %v", sys.Name(), inst.Query, err)
		}
		return sink.Outputs["out"]
	}
	engines := []vdbms.System{lightdblike.New(lightdblike.Options{}), scannerlike.New(scannerlike.Options{})}

	for _, sys := range engines {
		for _, d := range []int{4, 9, 20} {
			p := queries.Params{D: d}
			want, err := queries.RunQ2b(decoded, p)
			if err != nil {
				t.Fatal(err)
			}
			samePixels(t, sys.Name()+" Q2(b)", want, run(sys, fx.Instance(queries.Q2b, p)))
		}
		// Windows shorter than the 9-frame clip, as long, and longer.
		for _, m := range []int{2, 4, 9, 60} {
			p := queries.Params{M: m, Epsilon: 0.1}
			want, err := queries.RunQ2d(decoded, p)
			if err != nil {
				t.Fatal(err)
			}
			samePixels(t, sys.Name()+" Q2(d)", want, run(sys, fx.Instance(queries.Q2d, p)))
		}
	}

	// Q6(a) over serialized boxes (the LightDB-like engine's format):
	// corners on odd coordinates, two boxes overlapping, one cut by the
	// frame's edge, a frame with none, and frames past the list's end.
	car, ped := vcity.ClassVehicle.String(), vcity.ClassPedestrian.String()
	boxes := [][]metrics.Detection{
		{{Class: car, Box: geom.Rect{MinX: 3, MinY: 5, MaxX: 40, MaxY: 31}}},
		{
			{Class: car, Box: geom.Rect{MinX: 11, MinY: 7, MaxX: 64, MaxY: 50}},
			{Class: ped, Box: geom.Rect{MinX: 33.5, MinY: 21.25, MaxX: 91, MaxY: 77}},
		},
		{{Class: ped, Box: geom.Rect{MinX: float64(w) - 9, MinY: float64(h) - 13, MaxX: float64(w) + 20, MaxY: float64(h) + 20}}},
		nil,
		{{Class: car, Box: geom.Rect{MinX: -6, MinY: 1, MaxX: 7, MaxY: 2}}, {Class: ped, Box: geom.Rect{MinX: 0, MinY: 0, MaxX: float64(w), MaxY: 1}}},
	}
	serialized := queries.SerializeDetections(boxes)
	parsed, err := queries.ParseDetections(serialized)
	if err != nil {
		t.Fatal(err)
	}
	perFrame := make([][]metrics.Detection, len(decoded.Frames))
	copy(perFrame, parsed)
	inst := fx.Instance(queries.Q6a, fx.DefaultParams(t, queries.Q6a))
	inst.Boxes = &vdbms.BoxesInput{Serialized: serialized}
	got := run(engines[0], inst)

	closure := video.NewVideo(decoded.FPS)
	for i, f := range decoded.Frames {
		closure.Append(queries.JoinPFrame(f, queries.RenderBoxesFrame(w, h, i, perFrame[i], nil), queries.OmegaCoalesce))
	}
	samePixels(t, "lightdblike Q6(a) vs JoinPFrame(OmegaCoalesce)", closure, got)
	fused, err := queries.RunQ6a(decoded, queries.RenderBoxesVideo(w, h, decoded.FPS, perFrame, nil))
	if err != nil {
		t.Fatal(err)
	}
	samePixels(t, "lightdblike Q6(a) vs RunQ6a", fused, got)
	changed := 0
	for i, f := range got.Frames {
		if !bytes.Equal(f.Y, decoded.Frames[i].Y) {
			changed++
		}
	}
	if changed != 4 {
		t.Errorf("boxes changed %d frames, want 4: the fixture does not draw what it says", changed)
	}
}
