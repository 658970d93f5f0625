package render

import (
	"runtime"
	"testing"

	"repro/internal/vcity"
	"repro/internal/video"
)

// mixedWeatherCity has a drizzle, a rain and a dry tile.
func mixedWeatherCity(t testing.TB, w, h int) *vcity.City {
	t.Helper()
	city, err := vcity.Generate(vcity.Hyperparams{Scale: 3, Width: w, Height: h, Duration: 1, FPS: 15, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	precip := map[vcity.Precipitation]bool{}
	for _, tile := range city.Tiles {
		precip[tile.Layout.Spec.Weather.Precip] = true
	}
	if len(precip) != 3 {
		t.Fatalf("seed 4 no longer draws dry, drizzle and rain tiles: %v", precip)
	}
	return city
}

// TestFrameIntoSteadyStateAllocs pins the streaming contract: after a
// camera's first frame (which builds the layer and sizes the scratch
// slices), FrameInto allocates nothing, on dry and on rainy tiles.
func TestFrameIntoSteadyStateAllocs(t *testing.T) {
	city := mixedWeatherCity(t, 240, 136)
	r := New(city, 240, 136)
	dst := video.NewFrame(240, 136)
	for _, tile := range city.Tiles {
		for _, cam := range []*vcity.Camera{tile.Cameras[0], tile.Cameras[len(tile.Cameras)-1]} {
			r.FrameInto(cam, 0, dst)
			i := 0
			allocs := testing.AllocsPerRun(30, func() {
				i++
				r.FrameInto(cam, float64(i)/15, dst)
			})
			if allocs != 0 {
				t.Errorf("%s (%s): %.1f allocations per steady-state FrameInto, want 0", cam.ID, tile.Layout.Spec, allocs)
			}
		}
	}
}

// TestStaticLayerBudget bounds what a Renderer keeps alive. The static
// layer — RGB, its YUV 4:2:0 conversion and a uint16 owner per pixel,
// 6.5 bytes — must stay within 8 bytes per pixel on top of the w×h RGB
// frame the renderer composes in (3 bytes per pixel, there before the
// layer was), whatever the number of cameras and frames rendered: that
// is what keeps a generate worker's memory O(pixels).
func TestStaticLayerBudget(t *testing.T) {
	const w, h = 480, 270
	city := mixedWeatherCity(t, w, h)
	dst := video.NewFrame(w, h)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the first cycle can leave what died while it ran
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	r := New(city, w, h)
	for _, cam := range city.AllCameras() {
		for i := 0; i < 3; i++ {
			r.FrameInto(cam, float64(i)/15, dst)
		}
	}
	retained := int64(heap() - before)
	runtime.KeepAlive(r)
	runtime.KeepAlive(dst)
	const composing = 3 * w * h
	// The constant covers the per-frame scratch, which is sized by the
	// tile's object count (RushHour: 632 objects), not by the image.
	const scratch = 512 << 10
	if layer := retained - composing; layer > 8*w*h+scratch {
		t.Errorf("renderer retains %d bytes (%.1f per pixel): %d beyond the composed frame, budget %d",
			retained, float64(retained)/(w*h), layer, 8*w*h+scratch)
	}
	t.Logf("%dx%d renderer retains %.2f bytes per pixel after %d cameras", w, h, float64(retained)/(w*h), len(city.AllCameras()))
}

// BenchmarkDrawClouds is the per-frame cloud pass alone, on the camera
// of mixedWeatherCity with the most sky that clouds can cover; ns/px is
// per such pixel.
func BenchmarkDrawClouds(b *testing.B) {
	const w, h = 192, 108
	city := mixedWeatherCity(b, w, h)
	r := New(city, w, h)
	dst := video.NewFrame(w, h)
	var cam *vcity.Camera
	most := 0
	for _, c := range city.AllCameras() {
		r.FrameInto(c, 0, dst)
		n := 0
		for _, o := range r.owner {
			if o == ownerCloud {
				n++
			}
		}
		if n > most {
			cam, most = c, n
		}
	}
	r.FrameInto(cam, 0, dst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.drawClouds(float64(i) / 15)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*most), "ns/px")
	r.convertDirty(dst) // puts the layer back into rgb
}
