package render

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/vcity"
	"repro/internal/video"
)

func testCity(t *testing.T, seed uint64) *vcity.City {
	t.Helper()
	city, err := vcity.Generate(vcity.Hyperparams{
		Scale: 1, Width: 160, Height: 96, Duration: 2, FPS: 15, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return city
}

func TestFrameDeterministic(t *testing.T) {
	city := testCity(t, 4)
	cam := city.AllCameras()[0]
	a := New(city, 160, 96).Frame(cam, 0.5)
	b := New(city, 160, 96).Frame(cam, 0.5)
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatalf("luma differs at %d", i)
		}
	}
	for i := range a.U {
		if a.U[i] != b.U[i] || a.V[i] != b.V[i] {
			t.Fatalf("chroma differs at %d", i)
		}
	}
}

func TestFrameHasContent(t *testing.T) {
	city := testCity(t, 4)
	r := New(city, 160, 96)
	for _, cam := range city.AllCameras()[:4] {
		f := r.Frame(cam, 0.3)
		min, max := byte(255), byte(0)
		for _, v := range f.Y {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if max-min < 30 {
			t.Errorf("%s: frame luma range [%d, %d] too flat — empty render?", cam.ID, min, max)
		}
	}
}

func TestConsecutiveFramesCorrelated(t *testing.T) {
	// The paper's core argument against random data: real video has
	// inter-frame coherence. Verify consecutive rendered frames are far
	// more similar than distant ones.
	city := testCity(t, 11)
	cam := city.TrafficCameras()[0]
	r := New(city, 160, 96)
	f0 := r.Frame(cam, 0.0)
	f1 := r.Frame(cam, 1.0/15)
	f2 := r.Frame(cam, 1.5)
	near := meanAbsDiff(f0, f1)
	far := meanAbsDiff(f0, f2)
	if near >= far {
		t.Errorf("adjacent-frame diff %.2f not below distant-frame diff %.2f", near, far)
	}
	if near > 20 {
		t.Errorf("adjacent frames differ by %.2f mean luma — motion too violent", near)
	}
}

func meanAbsDiff(a, b *video.Frame) float64 {
	var sum float64
	for i := range a.Y {
		d := int(a.Y[i]) - int(b.Y[i])
		if d < 0 {
			d = -d
		}
		sum += float64(d)
	}
	return sum / float64(len(a.Y))
}

func TestWeatherAffectsBrightness(t *testing.T) {
	// Lighting: a clear-noon tile must render brighter skies than a
	// rainy-sunset tile. Compare sky rows (top of frame) for cameras
	// with level pitch using synthetic lighting directly.
	clear := lighting(vcity.WeatherConfigs[0]) // ClearNoon
	rainy := lighting(vcity.WeatherConfigs[9]) // RainSunset
	if clear.diffuse <= rainy.diffuse {
		t.Errorf("clear-noon diffuse %.2f should exceed rain-sunset %.2f", clear.diffuse, rainy.diffuse)
	}
	if rainy.warmth <= clear.warmth {
		t.Errorf("sunset warmth %.2f should exceed noon %.2f", rainy.warmth, clear.warmth)
	}
}

func TestGlyphBitKnownChars(t *testing.T) {
	// 'I' has its vertical bar in the middle column.
	if !GlyphBit('I', 2, 3) {
		t.Error("'I' center should be set")
	}
	if GlyphBit('I', 0, 3) {
		t.Error("'I' left edge of middle row should be clear")
	}
	// Out of bounds is clear.
	if GlyphBit('A', -1, 0) || GlyphBit('A', 0, GlyphH) {
		t.Error("out-of-bounds GlyphBit should be false")
	}
	// Lowercase falls back to uppercase.
	for y := 0; y < GlyphH; y++ {
		for x := 0; x < GlyphW; x++ {
			if GlyphBit('a', x, y) != GlyphBit('A', x, y) {
				t.Fatal("lowercase should map to uppercase glyph")
			}
		}
	}
	// Unknown characters render as a filled box.
	if !GlyphBit('€', 2, 2) {
		t.Error("unknown glyph should be filled")
	}
}

func TestGlyphsDistinct(t *testing.T) {
	alphabet := "ABCDEFGHJKLMNPRSTUVWXYZ0123456789"
	for i := 0; i < len(alphabet); i++ {
		for j := i + 1; j < len(alphabet); j++ {
			same := true
			for y := 0; y < GlyphH && same; y++ {
				for x := 0; x < GlyphW; x++ {
					if GlyphBit(rune(alphabet[i]), x, y) != GlyphBit(rune(alphabet[j]), x, y) {
						same = false
						break
					}
				}
			}
			if same {
				t.Errorf("glyphs %c and %c are identical", alphabet[i], alphabet[j])
			}
		}
	}
}

func TestDrawTextWritesPixels(t *testing.T) {
	f := video.NewFrame(64, 16)
	DrawText(f, 1, 1, 1, "HI", video.Color{R: 255, G: 255, B: 255})
	lit := 0
	for _, v := range f.Y {
		if v > 100 {
			lit++
		}
	}
	if lit == 0 {
		t.Error("DrawText wrote no pixels")
	}
	wantLit := 0
	for _, ch := range "HI" {
		for y := 0; y < GlyphH; y++ {
			for x := 0; x < GlyphW; x++ {
				if GlyphBit(ch, x, y) {
					wantLit++
				}
			}
		}
	}
	if lit != wantLit {
		t.Errorf("lit %d pixels, want %d", lit, wantLit)
	}
}

func TestDrawTextClipsAtEdges(t *testing.T) {
	f := video.NewFrame(8, 8)
	// Should not panic when drawing out of bounds.
	DrawText(f, -3, -3, 2, "XYZ", video.Color{R: 255})
	DrawText(f, 6, 6, 3, "XYZ", video.Color{R: 255})
}

func TestFillAndDrawRect(t *testing.T) {
	f := video.NewFrame(16, 16)
	FillRect(f, geom.Rect{MinX: 4, MinY: 4, MaxX: 8, MaxY: 8}, video.Color{R: 255, G: 255, B: 255})
	y, _, _ := f.At(5, 5)
	if y < 200 {
		t.Errorf("FillRect interior luma %d", y)
	}
	y, _, _ = f.At(9, 9)
	if y != 16 {
		t.Errorf("FillRect leaked outside: %d", y)
	}
	g := video.NewFrame(16, 16)
	DrawRect(g, geom.Rect{MinX: 2, MinY: 2, MaxX: 14, MaxY: 14}, 1, video.Color{R: 255, G: 255, B: 255})
	yEdge, _, _ := g.At(2, 2)
	yInside, _, _ := g.At(8, 8)
	if yEdge < 200 {
		t.Errorf("DrawRect edge luma %d", yEdge)
	}
	if yInside != 16 {
		t.Errorf("DrawRect filled the interior: %d", yInside)
	}
}

func TestTextMetrics(t *testing.T) {
	if w := TextWidth("ABC", 2); w != 3*(GlyphW+1)*2 {
		t.Errorf("TextWidth = %d", w)
	}
	if h := TextHeight(3); h != GlyphH*3 {
		t.Errorf("TextHeight = %d", h)
	}
}

func TestCaptureFrameCount(t *testing.T) {
	city := testCity(t, 6)
	cam := city.AllCameras()[0]
	v := Capture(city, cam)
	if len(v.Frames) != city.Params.FrameCount() {
		t.Errorf("captured %d frames, want %d", len(v.Frames), city.Params.FrameCount())
	}
	if v.FPS != city.Params.FPS {
		t.Errorf("FPS %d, want %d", v.FPS, city.Params.FPS)
	}
}

func TestPlateGlyphsRendered(t *testing.T) {
	// Place a camera directly in front of a vehicle and confirm the
	// plate region contains dark glyph pixels on a bright plate.
	city := testCity(t, 21)
	tile := city.Tiles[0]
	v := tile.Vehicles[0]
	pos, heading := v.PositionAt(1.0)
	front := geom.Vec2{X: math.Cos(heading), Y: math.Sin(heading)}
	camPos := pos.Add(front.Scale(4))
	cam := &vcity.Camera{
		ID: "probe", Kind: vcity.TrafficCamera, Tile: 0, Pano: -1,
		Pos: geom.Vec3{X: camPos.X, Y: camPos.Y, Z: 0.6},
		Yaw: geom.WrapAngle(heading + 3.14159265), Pitch: 0, FOVDeg: 40,
	}
	r := New(city, 320, 180)
	f := r.Frame(cam, 1.0)
	// The plate should be near the image center: find bright pixels
	// with dark neighbors (glyphs on plate).
	bright, dark := 0, 0
	for y := 60; y < 120; y++ {
		for x := 100; x < 220; x++ {
			l := f.Y[y*f.W+x]
			if l > 180 {
				bright++
			}
			if l < 60 {
				dark++
			}
		}
	}
	if bright < 50 {
		t.Errorf("plate region has only %d bright pixels — plate not rendered?", bright)
	}
	if dark < 10 {
		t.Errorf("plate region has only %d dark pixels — glyphs not rendered?", dark)
	}
}

func TestRainOnlyInRainyTiles(t *testing.T) {
	// Compare two renders of the same dry-weather tile at different
	// instants: no rain overlay means the static scene parts match.
	city := testCity(t, 4)
	var dryTile *vcity.Tile
	for _, tile := range city.Tiles {
		if tile.Layout.Spec.Weather.Precip == vcity.Dry {
			dryTile = tile
			break
		}
	}
	if dryTile == nil {
		t.Skip("no dry tile at this seed")
	}
}

func BenchmarkRenderFrame(b *testing.B) {
	city, err := vcity.Generate(vcity.Hyperparams{
		Scale: 1, Width: 240, Height: 136, Duration: 1, FPS: 15, Seed: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	cam := city.TrafficCameras()[0]
	r := New(city, 240, 136)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Frame(cam, float64(i%30)/15)
	}
	b.SetBytes(240 * 136 * 3 / 2)
}

// benchShapeCity is the bench/ harness's dataset shape: two dry,
// Moderate-density tiles, 15 fps.
func benchShapeCity(b *testing.B, w, h int) *vcity.City {
	city, err := vcity.Generate(vcity.Hyperparams{
		Scale: 2, Width: w, Height: h, Duration: 1, FPS: 15, Seed: 4,
		TileFilter: func(s vcity.TileSpec) bool {
			return s.Weather.Precip == vcity.Dry && s.Density.Name == "Moderate"
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return city
}

// benchClips renders w×h clip after clip of the given length, each of a
// camera the renderer did not render last, so every clip pays a static
// layer build. One op is one clip.
func benchClips(b *testing.B, w, h, frames int) {
	city := benchShapeCity(b, w, h)
	cams := city.AllCameras()
	r := New(city, w, h)
	dst := video.NewFrame(w, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cam := cams[i%len(cams)]
		for f := 0; f < frames; f++ {
			r.FrameInto(cam, float64(f)/15, dst)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
}

// BenchmarkRenderClip is what one camera costs vcg.Generate: a fresh
// camera's clip, layer build included, at the bench/ harness's 192×108
// and 15 frames, at ten times that length (README, "Performance →
// Generation"), and at the paper's 960×540.
func BenchmarkRenderClip(b *testing.B) {
	for _, c := range []struct{ w, h, frames int }{{192, 108, 15}, {192, 108, 150}, {960, 540, 15}} {
		b.Run(fmt.Sprintf("%dx%d/frames=%d", c.w, c.h, c.frames), func(b *testing.B) { benchClips(b, c.w, c.h, c.frames) })
	}
}

// BenchmarkRenderFirstFrame is the worst case for the static layer, a
// one-frame clip: every frame pays a layer build. It must stay within
// 10 % of what a frame cost before the layer existed (CHANGES.md).
func BenchmarkRenderFirstFrame(b *testing.B) { benchClips(b, 192, 108, 1) }

func BenchmarkRenderResolutionSweep(b *testing.B) {
	city, err := vcity.Generate(vcity.Hyperparams{
		Scale: 1, Width: 240, Height: 136, Duration: 1, FPS: 15, Seed: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	cam := city.TrafficCameras()[0]
	for _, res := range []struct{ w, h int }{{240, 136}, {480, 270}, {960, 540}} {
		b.Run(fmt.Sprintf("%dx%d", res.w, res.h), func(b *testing.B) {
			r := New(city, res.w, res.h)
			for i := 0; i < b.N; i++ {
				r.Frame(cam, 0.5)
			}
		})
	}
}
