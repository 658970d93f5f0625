package queries

import (
	"math"
	"testing"

	"repro/internal/alpr"
	"repro/internal/codec"
	"repro/internal/detect"
	"repro/internal/render"
	"repro/internal/vcity"
	"repro/internal/video"
	"repro/internal/vtt"
)

func cityFixture(t *testing.T) (*vcity.City, []*video.Video, []*Env) {
	return cityFixtureOf(t, 192, 108, 123)
}

// cityFixtureOf renders every traffic camera of a one-tile, 2 s city.
func cityFixtureOf(t *testing.T, w, h int, seed uint64) (*vcity.City, []*video.Video, []*Env) {
	t.Helper()
	city, err := vcity.Generate(vcity.Hyperparams{
		Scale: 1, Width: w, Height: h, Duration: 2, FPS: 15, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	det := detect.NewYOLO(detect.ProfileSynthetic, 9)
	det.CostPasses = 1 // keep tests fast
	var vids []*video.Video
	var envs []*Env
	for _, cam := range city.TrafficCameras() {
		vids = append(vids, render.Capture(city, cam))
		envs = append(envs, &Env{City: city, Camera: cam, Detector: det})
	}
	return city, vids, envs
}

func TestRunQ2cProducesOmegaAndBoxes(t *testing.T) {
	_, vids, envs := cityFixture(t)
	out, err := RunQ2c(vids[0], Params{
		Algorithm: "yolov2",
		Classes:   []vcity.ObjectClass{vcity.ClassVehicle, vcity.ClassPedestrian},
	}, envs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Frames) != len(vids[0].Frames) {
		t.Fatalf("Q2(c) output %d frames", len(out.Frames))
	}
	// Every pixel is either ω or a class color.
	vy, vu, vv := ClassColor(vcity.ClassVehicle).YUV()
	py, pu, pv := ClassColor(vcity.ClassPedestrian).YUV()
	for _, f := range out.Frames {
		for y := 0; y < f.H; y += 3 {
			for x := 0; x < f.W; x += 3 {
				Y, U, V := f.At(x, y)
				p := Pixel{Y, U, V}
				isVeh := absB(Y, vy) < 8 && absB(U, vu) < 8 && absB(V, vv) < 8
				isPed := absB(Y, py) < 8 && absB(U, pu) < 8 && absB(V, pv) < 8
				// Box borders share 2×2 chroma blocks with ω pixels
				// (4:2:0), so ω is judged on luma alone there.
				isOmegaLuma := absB(Y, Omega.Y) < 8
				if !IsOmega(p) && !isVeh && !isPed && !isOmegaLuma {
					t.Fatalf("pixel (%d,%d) = %+v is neither ω nor a class color", x, y, p)
				}
			}
		}
	}
}

func absB(a, b byte) int {
	if a > b {
		return int(a - b)
	}
	return int(b - a)
}

func TestRunQ2cRequiresEnvironment(t *testing.T) {
	v := patternVideo(32, 32, 2, 15)
	if _, err := RunQ2c(v, Params{Algorithm: "yolov2", Classes: []vcity.ObjectClass{vcity.ClassVehicle}}, nil); err == nil {
		t.Error("Q2(c) without environment should fail")
	}
}

func TestRunQ2cRejectsWrongAlgorithm(t *testing.T) {
	_, vids, envs := cityFixture(t)
	_, err := RunQ2c(vids[0], Params{Algorithm: "rcnn", Classes: []vcity.ObjectClass{vcity.ClassVehicle}}, envs[0])
	if err == nil {
		t.Error("the benchmark requires the specified algorithm (yolov2)")
	}
}

func TestRunQ6bRendersActiveCues(t *testing.T) {
	v := patternVideo(96, 54, 15, 15)
	doc := &vtt.Document{Cues: []vtt.Cue{
		{Start: 0, End: 0.5, Line: 50, Position: 50, Text: "MID"},
	}}
	out, err := RunQ6b(v, Params{Captions: doc})
	if err != nil {
		t.Fatal(err)
	}
	diff0 := frameDiffCount(v.Frames[0], out.Frames[0])
	diffLate := frameDiffCount(v.Frames[10], out.Frames[10])
	if diff0 == 0 {
		t.Error("active cue rendered no pixels")
	}
	if diffLate != 0 {
		t.Error("inactive cue changed pixels")
	}
}

func frameDiffCount(a, b *video.Frame) int {
	n := 0
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			n++
		}
	}
	return n
}

func TestRunQ7ComposesPipeline(t *testing.T) {
	_, vids, envs := cityFixture(t)
	short := video.NewVideo(vids[0].FPS)
	for _, f := range vids[0].Frames[:8] {
		short.Append(f)
	}
	outs, err := RunQ7(short, Params{
		Classes: []vcity.ObjectClass{vcity.ClassVehicle, vcity.ClassPedestrian},
		M:       4, Epsilon: 0.1,
	}, envs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("Q7 produced %d class outputs, want 2", len(outs))
	}
	for class, v := range outs {
		if len(v.Frames) != 8 {
			t.Errorf("class %s output %d frames", class, len(v.Frames))
		}
	}
}

func TestRunQ8FindsPlantedVehicle(t *testing.T) {
	// At 192×108 no plate is identifiable; at 256×144, seed 6, one is.
	city, vids, envs := cityFixtureOf(t, 256, 144, 6)
	rec := alpr.New()
	tile := city.Tiles[0]
	var plate string
	for _, veh := range tile.Vehicles {
		for _, cam := range city.TrafficCameras() {
			for f := 0; f < 30 && plate == ""; f++ {
				if tile.PlateAt(cam, float64(f)/15, veh, 256, 144).Identifiable {
					plate = veh.Plate
				}
			}
		}
		if plate != "" {
			break
		}
	}
	if plate == "" {
		t.Fatal("no identifiable plate at the pinned seed and resolution")
	}
	out, segs, err := RunQ8(vids, envs, rec, plate)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no tracking segments found for an identifiable plate")
	}
	// Segments must be ordered by entry time and the output frame count
	// must equal the sum of segment lengths.
	total := 0
	for i, s := range segs {
		total += s.LastFrame - s.FirstFrame + 1
		if i > 0 && s.EntryTime < segs[i-1].EntryTime {
			t.Error("segments not ordered by entry time")
		}
	}
	if total != len(out.Frames) {
		t.Errorf("tracking video %d frames, segments sum to %d", len(out.Frames), total)
	}
}

func TestRunQ8UnknownPlateEmpty(t *testing.T) {
	_, vids, envs := cityFixture(t)
	out, segs, err := RunQ8(vids, envs, alpr.New(), "ZZZZZZ")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 || len(out.Frames) != 0 {
		t.Error("unknown plate should yield an empty tracking video")
	}
}

func TestRunQ9Equirectangular(t *testing.T) {
	city, err := vcity.Generate(vcity.Hyperparams{
		Scale: 1, Width: 96, Height: 96, Duration: 1, FPS: 15, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var subCams []*vcity.Camera
	for _, cam := range city.AllCameras() {
		if cam.Kind == vcity.PanoramicSubCamera {
			subCams = append(subCams, cam)
		}
	}
	subCams = subCams[:4]
	var subVids []*video.Video
	for _, cam := range subCams {
		subVids = append(subVids, render.Capture(city, cam))
	}
	out, err := RunQ9(subVids, subCams)
	if err != nil {
		t.Fatal(err)
	}
	w, h := out.Resolution()
	if w != 2*h {
		t.Errorf("equirectangular output %dx%d is not 2:1", w, h)
	}
	// The stitched frame must have content from all directions: no
	// large black (unmapped) bands along the equator.
	f := out.Frames[0]
	eq := f.H / 2
	black := 0
	for x := 0; x < f.W; x++ {
		if f.Y[eq*f.W+x] <= 17 {
			black++
		}
	}
	if black > f.W/10 {
		t.Errorf("%d/%d equator pixels unmapped — stitch has gaps", black, f.W)
	}
}

func TestRunQ9RequiresFourInputs(t *testing.T) {
	if _, err := RunQ9(nil, nil); err == nil {
		t.Error("Q9 needs exactly 4 inputs")
	}
}

func TestRunQ10TilesAndDownsamples(t *testing.T) {
	v := patternVideo(96, 48, 3, 15)
	tiles := make([]int, 9)
	for i := range tiles {
		tiles[i] = 1 << 18
	}
	out, err := RunQ10(v, Params{TileBitrates: tiles, ClientW: 48, ClientH: 24}, codec.PresetH264)
	if err != nil {
		t.Fatal(err)
	}
	w, h := out.Resolution()
	if w != 48 || h != 24 {
		t.Errorf("Q10 client output %dx%d", w, h)
	}
}

func TestRunQ10Validation(t *testing.T) {
	v := patternVideo(96, 48, 1, 15)
	if _, err := RunQ10(v, Params{TileBitrates: []int{1, 2}, ClientW: 48, ClientH: 24}, codec.PresetH264); err == nil {
		t.Error("Q10 requires exactly 9 tile bitrates")
	}
}

func TestFrameTime(t *testing.T) {
	env := &Env{StartTime: 10}
	if got := env.FrameTime(15, 15); math.Abs(got-11) > 1e-9 {
		t.Errorf("FrameTime = %v, want 11", got)
	}
}
