package vcg

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/container"
	"repro/internal/parallel"
	"repro/internal/vcity"
	"repro/internal/vfs"
)

func tinyParams(seed uint64) vcity.Hyperparams {
	return vcity.Hyperparams{Scale: 1, Width: 96, Height: 64, Duration: 0.5, FPS: 16, Seed: seed}
}

func TestGenerateProducesAllCameraVideos(t *testing.T) {
	store := vfs.NewMemory()
	res, err := Generate(tinyParams(1), Options{Captions: true}, store)
	if err != nil {
		t.Fatal(err)
	}
	// 1 tile × (4 traffic + 4 panoramic subs) = 8 videos.
	if len(res.Manifest.Videos) != 8 {
		t.Fatalf("manifest lists %d videos, want 8", len(res.Manifest.Videos))
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	// 8 videos + manifest.json.
	if len(names) != 9 {
		t.Errorf("store holds %d objects, want 9: %v", len(names), names)
	}
	for _, v := range res.Manifest.Videos {
		if v.Frames != 8 {
			t.Errorf("video %s has %d frames, want 8 (0.5s at 16fps)", v.Name, v.Frames)
		}
		if v.Bytes <= 0 {
			t.Errorf("video %s has no payload", v.Name)
		}
	}
}

func TestGenerateDeterministicBytes(t *testing.T) {
	s1, s2 := vfs.NewMemory(), vfs.NewMemory()
	if _, err := Generate(tinyParams(7), Options{Captions: true}, s1); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(tinyParams(7), Options{Captions: true}, s2); err != nil {
		t.Fatal(err)
	}
	names, _ := s1.List()
	for _, name := range names {
		a, _ := vfs.ReadAll(s1, name)
		b, _ := vfs.ReadAll(s2, name)
		if !bytes.Equal(a, b) {
			t.Fatalf("object %s differs between identical generations", name)
		}
	}
}

func TestDistributedMatchesSingleNode(t *testing.T) {
	p := vcity.Hyperparams{Scale: 2, Width: 96, Height: 64, Duration: 0.5, FPS: 16, Seed: 3}
	s1, s4 := vfs.NewMemory(), vfs.NewMemory()
	if _, err := Generate(p, Options{Nodes: 1}, s1); err != nil {
		t.Fatal(err)
	}
	res4, err := Generate(p, Options{Nodes: 4}, s4)
	if err != nil {
		t.Fatal(err)
	}
	names, _ := s1.List()
	for _, name := range names {
		if name == "manifest.json" {
			continue // video order within the manifest may differ in timing fields
		}
		a, _ := vfs.ReadAll(s1, name)
		b, _ := vfs.ReadAll(s4, name)
		if !bytes.Equal(a, b) {
			t.Fatalf("distributed generation changed %s", name)
		}
	}
	if len(res4.NodeTimes) != 4 {
		t.Errorf("%d node times recorded", len(res4.NodeTimes))
	}
}

func TestCaptionsEmbedded(t *testing.T) {
	store := vfs.NewMemory()
	res, err := Generate(tinyParams(5), Options{Captions: true}, store)
	if err != nil {
		t.Fatal(err)
	}
	data, err := vfs.ReadAll(store, res.Manifest.Videos[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	_, vttData, err := container.Demux(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(vttData) == 0 {
		t.Fatal("no caption track embedded")
	}
	if !bytes.HasPrefix(vttData, []byte("WEBVTT")) {
		t.Errorf("caption track is not WebVTT: %q", vttData[:10])
	}
}

func TestNoCaptionsWhenDisabled(t *testing.T) {
	store := vfs.NewMemory()
	res, err := Generate(tinyParams(5), Options{}, store)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := vfs.ReadAll(store, res.Manifest.Videos[0].Name)
	_, vttData, err := container.Demux(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if vttData != nil {
		t.Error("captions embedded although disabled")
	}
}

func TestGenerateCaptionsNonOverlapping(t *testing.T) {
	doc := GenerateCaptions("camX", 30, 9)
	if len(doc.Cues) == 0 {
		t.Fatal("no cues generated for 30s")
	}
	for i := 1; i < len(doc.Cues); i++ {
		if doc.Cues[i].Start < doc.Cues[i-1].End {
			t.Errorf("cues %d and %d overlap", i-1, i)
		}
	}
	for _, c := range doc.Cues {
		if c.End > 30+1e-9 {
			t.Errorf("cue ends at %v past the video duration", c.End)
		}
		if c.Line < 0 || c.Position < 0 {
			t.Error("generated cues should have explicit line/position")
		}
	}
}

func TestRecordedProfileChangesPixels(t *testing.T) {
	p := tinyParams(11)
	s1, s2 := vfs.NewMemory(), vfs.NewMemory()
	if _, err := Generate(p, Options{Profile: ProfileSynthetic}, s1); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(p, Options{Profile: ProfileRecorded}, s2); err != nil {
		t.Fatal(err)
	}
	names, _ := s1.List()
	differs := false
	for _, name := range names {
		if name == "manifest.json" {
			continue
		}
		a, _ := vfs.ReadAll(s1, name)
		b, _ := vfs.ReadAll(s2, name)
		if !bytes.Equal(a, b) {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("recorded profile produced identical bytes to synthetic")
	}
}

func TestRecordedProfileLargerPayload(t *testing.T) {
	// Sensor noise compresses worse, so the recorded corpus should be
	// at least as large as the clean render.
	p := tinyParams(13)
	s1, s2 := vfs.NewMemory(), vfs.NewMemory()
	Generate(p, Options{Profile: ProfileSynthetic}, s1)
	Generate(p, Options{Profile: ProfileRecorded}, s2)
	if s2.Size() <= s1.Size() {
		t.Errorf("recorded corpus %d bytes <= synthetic %d — noise should cost bits",
			s2.Size(), s1.Size())
	}
}

func TestVideoName(t *testing.T) {
	if got := VideoName("tile0-traffic1"); got != "tile0-traffic1.vrmf" {
		t.Errorf("VideoName = %q", got)
	}
}

func TestWeatherFilterRecordedInManifest(t *testing.T) {
	store := vfs.NewMemory()
	res, err := Generate(tinyParams(21), Options{WeatherFilter: "dry", DensityFilter: "RushHour"}, store)
	if err != nil {
		t.Fatal(err)
	}
	if res.Manifest.WeatherFilter != "dry" || res.Manifest.DensityFilter != "RushHour" {
		t.Errorf("manifest filters = %q/%q", res.Manifest.WeatherFilter, res.Manifest.DensityFilter)
	}
	for _, tile := range res.City.Tiles {
		spec := tile.Layout.Spec
		if spec.Weather.Precip != vcity.Dry || spec.Density.Name != "RushHour" {
			t.Errorf("tile %d violates filter: %s", tile.Index, spec)
		}
	}
}

func TestBuildTileFilterErrors(t *testing.T) {
	if _, err := BuildTileFilter("snowstorm", "any"); err == nil {
		t.Error("unknown weather filter should fail")
	}
	if f, err := BuildTileFilter("", ""); err != nil || f != nil {
		t.Error("empty filters should be nil predicate")
	}
	// Density names are case-sensitive, and a bad one is named up front
	// with the valid ones, not reported as a filter admitting no tiles.
	for _, weather := range []string{"any", "dry"} {
		_, err := BuildTileFilter(weather, "moderate")
		if err == nil || !strings.Contains(err.Error(), `"moderate"`) || !strings.Contains(err.Error(), "Sparse, Moderate, RushHour") {
			t.Errorf("weather %q, density \"moderate\": err = %v, want it named with the valid densities", weather, err)
		}
	}
	for _, d := range vcity.Densities {
		if f, err := BuildTileFilter("", d.Name); err != nil || f == nil || !f(vcity.TileSpec{Density: d}) {
			t.Errorf("density %q: filter %v, err %v", d.Name, f != nil, err)
		}
	}
}

// generateAll runs Generate with the given options and returns every
// stored object (including manifest.json) keyed by name.
func generateAll(t *testing.T, p vcity.Hyperparams, opt Options) map[string][]byte {
	t.Helper()
	store := vfs.NewMemory()
	if _, err := Generate(p, opt, store); err != nil {
		t.Fatal(err)
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		data, err := vfs.ReadAll(store, name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

// TestWorkerCountDoesNotChangeBytes asserts the central determinism
// guarantee of the parallel pipeline: for fixed hyperparameters
// (L, R, t, s) every stored object — videos and manifest alike — is
// bit-identical whether generation runs sequentially, on one worker,
// or on eight, and regardless of the node partition.
func TestWorkerCountDoesNotChangeBytes(t *testing.T) {
	p := vcity.Hyperparams{Scale: 2, Width: 96, Height: 64, Duration: 0.5, FPS: 16, Seed: 9}
	base := generateAll(t, p, Options{Captions: true, Sequential: true})
	for _, tc := range []struct {
		label string
		opt   Options
	}{
		{"workers=1", Options{Captions: true, Workers: 1}},
		{"workers=8", Options{Captions: true, Workers: 8}},
		{"workers=8,nodes=3", Options{Captions: true, Workers: 8, Nodes: 3}},
		{"recorded,workers=8", Options{Captions: true, Workers: 8, Profile: ProfileRecorded}},
	} {
		got := generateAll(t, p, tc.opt)
		if tc.opt.Profile == ProfileRecorded {
			// The recorded profile changes pixel content by design; it
			// must still be deterministic, so compare against its own
			// sequential baseline instead.
			base := generateAll(t, p, Options{Captions: true, Sequential: true, Profile: ProfileRecorded})
			compareStores(t, tc.label, base, got)
			continue
		}
		compareStores(t, tc.label, base, got)
	}
}

func compareStores(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: store holds %d objects, baseline %d", label, len(got), len(want))
	}
	for name, a := range want {
		b, ok := got[name]
		if !ok {
			t.Fatalf("%s: object %s missing", label, name)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: object %s differs from sequential baseline", label, name)
		}
	}
}

// TestWorkersDeterministicAtGOMAXPROCS1 pins the scheduler to one OS
// thread and re-runs an 8-worker generation: goroutine interleaving
// collapses to a completely different schedule, and the bytes must not
// move.
func TestWorkersDeterministicAtGOMAXPROCS1(t *testing.T) {
	p := tinyParams(17)
	base := generateAll(t, p, Options{Captions: true, Sequential: true})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	got := generateAll(t, p, Options{Captions: true, Workers: 8})
	compareStores(t, "GOMAXPROCS=1,workers=8", base, got)
}

// TestSequentialForcesOneWorker documents the Figure 9 measurement
// contract: Sequential mode must run on the calling goroutine only.
func TestSequentialForcesOneWorker(t *testing.T) {
	o := Options{Sequential: true, Workers: 8}.withDefaults()
	if o.Workers != 1 {
		t.Errorf("Sequential left Workers = %d, want 1", o.Workers)
	}
	if d := (Options{}).withDefaults(); d.Workers != parallel.Default() {
		t.Errorf("default Workers = %d, want parallel.Default() = %d", d.Workers, parallel.Default())
	}
}
