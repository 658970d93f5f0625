package render_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/render"
	"repro/internal/vcity"
	"repro/internal/video"
)

// The renderer's identity contract (DESIGN.md §5.15). oracle_test.go is
// the renderer as it was before the static layer — every pixel of every
// frame derived from scratch — and TestRenderMatchesOracle holds
// render.Renderer to it byte for byte over a seeded corpus, on every
// architecture; the one deliberate difference, the edge-column fix, is
// a guarded line in the oracle whose whole effect
// TestEdgeColumnFixIsConfined measures. testdata/render_golden.sha256
// pins the same frames across commits.

// corpusSeeds at Scale 3 draw every weather, every density and both
// maps (checked by corpusCities); seed s renders at corpusSizes[s%3].
var corpusSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}

var corpusSizes = [3][2]int{{192, 108}, {240, 136}, {97, 55}}

// corpusTimes are the instants every camera is rendered at, in this
// order: the first frames of a 15 fps clip, repeats, decreasing times,
// times past the clip's end and one before its start.
var corpusTimes = []float64{
	0, 1.0 / 15, 2.0 / 15, 3.0 / 15, 3.0 / 15, 14.0 / 15, 7.0 / 15, 0.5, 0.25, 0,
	1, 3.7, 61.3, 2.05, 900.02, 0.001, 0.0666, 12.5, 1.0 / 15, -0.4,
}

type corpusCity struct {
	seed uint64
	w, h int
	city *vcity.City
}

func corpusCities(t *testing.T) []corpusCity {
	t.Helper()
	seeds := corpusSeeds
	if testing.Short() {
		seeds = seeds[:3]
	}
	var out []corpusCity
	weathers, densities, maps := map[string]bool{}, map[string]bool{}, map[vcity.MapKind]bool{}
	for _, seed := range seeds {
		size := corpusSizes[seed%3]
		city, err := vcity.Generate(vcity.Hyperparams{
			Scale: 3, Width: size[0], Height: size[1], Duration: 1, FPS: 15, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, tile := range city.Tiles {
			spec := tile.Layout.Spec
			weathers[spec.Weather.Name], densities[spec.Density.Name], maps[spec.Map] = true, true, true
		}
		out = append(out, corpusCity{seed: seed, w: size[0], h: size[1], city: city})
	}
	if !testing.Short() && (len(weathers) != len(vcity.WeatherConfigs) || len(densities) != len(vcity.Densities) || len(maps) != 2) {
		t.Fatalf("corpus draws %d weathers, %d densities, %d maps; want all of each", len(weathers), len(densities), len(maps))
	}
	return out
}

// plane is one sample plane of two frames being compared.
type plane struct {
	name   string
	a, b   []byte
	stride int
}

func planes(a, b *video.Frame) []plane {
	return []plane{{"Y", a.Y, b.Y, a.W}, {"U", a.U, b.U, a.ChromaW()}, {"V", a.V, b.V, a.ChromaW()}}
}

// sameFrame reports the first sample at which got differs from want.
func sameFrame(want, got *video.Frame) error {
	for _, p := range planes(want, got) {
		if len(p.a) != len(p.b) {
			return fmt.Errorf("plane %s has %d samples, want %d", p.name, len(p.b), len(p.a))
		}
		for i := range p.a {
			if p.a[i] != p.b[i] {
				n := 0
				for j := range p.a {
					if p.a[j] != p.b[j] {
						n++
					}
				}
				return fmt.Errorf("plane %s differs at (%d, %d): got %d, want %d (%d samples of the plane differ)",
					p.name, i%p.stride, i/p.stride, p.b[i], p.a[i], n)
			}
		}
	}
	return nil
}

func TestRenderMatchesOracle(t *testing.T) {
	// One Renderer per resolution, walked across every camera of every
	// city at that resolution, so layer invalidation is on trial too.
	walkers := map[[2]int]*render.Renderer{}
	frames, failures := 0, 0
	for _, c := range corpusCities(t) {
		size := [2]int{c.w, c.h}
		walker := walkers[size]
		if walker == nil {
			walker = render.New(c.city, c.w, c.h)
			walkers[size] = walker
		}
		walker.SetCity(c.city)
		oracle := newOracle(c.city, c.w, c.h)
		oracle.clip = true
		pooled := video.NewFrame(c.w, c.h)
		cams := c.city.AllCameras()
		check := func(cam *vcity.Camera, tm float64, into bool) {
			want := oracle.Frame(cam, tm)
			var got *video.Frame
			if into {
				// A pooled frame arrives holding some other frame.
				pooled.Fill(0xAA, 0x55, 0xCC)
				walker.FrameInto(cam, tm, pooled)
				got = pooled
			} else {
				got = walker.Frame(cam, tm)
			}
			frames++
			if err := sameFrame(want, got); err != nil && failures < 10 {
				failures++
				t.Errorf("seed %d %dx%d %s t=%v (%s): %v", c.seed, c.w, c.h, cam.ID,
					tm, c.city.TileOf(cam).Layout.Spec, err)
			}
		}
		for _, cam := range cams {
			for i, tm := range corpusTimes {
				check(cam, tm, i%2 == 0)
			}
		}
		// Back and forth between two cameras: every frame rebuilds the layer.
		for i := 0; i < 4; i++ {
			check(cams[i%2*5], 0.2, true)
		}
	}
	t.Logf("%d frames compared", frames)
}

// TestEdgeColumnFixIsConfined measures everything the renderer does
// differently from the one it replaced. The old rasterizer clamped a
// scanline span into the image before asking whether it was on screen,
// so a face wholly left or right of the image painted column 0 or w−1
// on every row it spanned. Rejecting such spans (oracle.clip, and the
// renderer) must change those two luma columns and the chroma columns
// over them, and nothing else.
func TestEdgeColumnFixIsConfined(t *testing.T) {
	frames, changed := 0, 0
	for _, c := range corpusCities(t) {
		old, fixed := newOracle(c.city, c.w, c.h), newOracle(c.city, c.w, c.h)
		fixed.clip = true
		for _, cam := range c.city.AllCameras() {
			for _, tm := range goldenTimes {
				a, b := old.Frame(cam, tm), fixed.Frame(cam, tm)
				frames++
				differs := false
				for _, p := range planes(a, b) {
					for i := range p.a {
						if p.a[i] == p.b[i] {
							continue
						}
						differs = true
						if x := i % p.stride; x != 0 && x != p.stride-1 {
							t.Fatalf("seed %d %s t=%v: the fix moved %s(%d, %d), not an edge column",
								c.seed, cam.ID, tm, p.name, x, i/p.stride)
						}
					}
				}
				if differs {
					changed++
				}
			}
		}
	}
	if changed == 0 {
		t.Error("the fix changed no frame of the corpus: the oracle's clip guard is not reached")
	}
	t.Logf("%d of %d frames differ, in edge columns only", changed, frames)
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/render_golden.sha256")

// goldenTimes are the corpus instants pinned per camera: one inside the
// clip, one past its end.
var goldenTimes = []float64{7.0 / 15, 3.7}

// TestRenderGolden pins rendered bytes across commits: one digest per
// (seed, camera, t). Regenerate — only when the image is meant to
// change — with
//
//	go test ./internal/render -run TestRenderGolden -update
//
// Pinned on amd64 only: elsewhere Go may fuse x*y+z into one rounding,
// which moves the last bit of a colour. TestRenderMatchesOracle runs
// everywhere.
func TestRenderGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("rendered bytes are pinned on amd64 only")
	}
	if testing.Short() && !*updateGolden {
		t.Skip("needs the whole corpus")
	}
	const path = "testdata/render_golden.sha256"
	var got bytes.Buffer
	for _, c := range corpusCities(t) {
		r := render.New(c.city, c.w, c.h)
		for _, cam := range c.city.AllCameras() {
			for _, tm := range goldenTimes {
				f := r.Frame(cam, tm)
				h := sha256.New()
				h.Write(f.Y)
				h.Write(f.U)
				h.Write(f.V)
				fmt.Fprintf(&got, "%s  seed%d/%dx%d/%s/t=%.4f\n", hex.EncodeToString(h.Sum(nil)), c.seed, c.w, c.h, cam.ID, tm)
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, got.Bytes()) {
		return
	}
	ws, gs := bufio.NewScanner(bytes.NewReader(want)), bufio.NewScanner(&got)
	for n := 0; ws.Scan() && gs.Scan() && n < 10; {
		if ws.Text() != gs.Text() {
			n++
			t.Errorf("rendered bytes moved: %s", strings.Fields(gs.Text())[1])
		}
	}
	t.Errorf("rendered frames differ from %s (see -update in this test's comment)", path)
}
