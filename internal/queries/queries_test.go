package queries

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/codec"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/video"
)

// patternVideo builds a structured test video with a moving bright
// square over a gradient background.
func patternVideo(w, h, n, fps int) *video.Video {
	v := video.NewVideo(fps)
	for i := 0; i < n; i++ {
		f := video.NewFrame(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				f.SetY(x, y, byte(30+(x+y)%150))
			}
		}
		// Moving square.
		sx := 0
		if w > 8 {
			sx = (i * 3) % (w - 8)
		}
		for y := h / 4; y < h/4+8 && y < h; y++ {
			for x := sx; x < sx+8; x++ {
				f.Set(x, y, 220, 90, 160)
			}
		}
		v.Append(f)
	}
	return v
}

func TestPMapAppliesPerPixel(t *testing.T) {
	v := patternVideo(16, 16, 2, 15)
	out := PMap(v, func(p Pixel) Pixel {
		return Pixel{Y: 255 - p.Y, U: p.U, V: p.V}
	})
	for i := range v.Frames {
		for j := range v.Frames[i].Y {
			if out.Frames[i].Y[j] != 255-v.Frames[i].Y[j] {
				t.Fatalf("frame %d pixel %d not inverted", i, j)
			}
		}
	}
}

func TestFMapPreservesLength(t *testing.T) {
	v := patternVideo(16, 16, 5, 15)
	out := FMap(v, func(f *video.Frame) *video.Frame { return f.Grayscale() })
	if len(out.Frames) != 5 {
		t.Errorf("FMap output has %d frames", len(out.Frames))
	}
}

func TestJoinPResolutionMismatch(t *testing.T) {
	a := patternVideo(16, 16, 2, 15)
	b := patternVideo(8, 8, 2, 15)
	if _, err := JoinP(a, b, OmegaCoalesce); err == nil {
		t.Error("JoinP should reject resolution mismatch")
	}
}

func TestJoinPShorterInputWins(t *testing.T) {
	a := patternVideo(16, 16, 5, 15)
	b := patternVideo(16, 16, 3, 15)
	out, err := JoinP(a, b, func(pa, pb Pixel) Pixel { return pa })
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Frames) != 3 {
		t.Errorf("JoinP output %d frames, want 3", len(out.Frames))
	}
}

func TestOmegaCoalesce(t *testing.T) {
	bg := Pixel{Y: 100, U: 110, V: 120}
	fg := Pixel{Y: 200, U: 90, V: 60}
	if got := OmegaCoalesce(bg, Omega); got != bg {
		t.Errorf("ω should coalesce to background: %+v", got)
	}
	if got := OmegaCoalesce(bg, fg); got != fg {
		t.Errorf("non-ω should win: %+v", got)
	}
}

func TestIsOmegaTolerance(t *testing.T) {
	if !IsOmega(Pixel{Y: 18, U: 126, V: 130}) {
		t.Error("near-black should be ω (codec tolerance)")
	}
	if IsOmega(Pixel{Y: 100, U: 128, V: 128}) {
		t.Error("mid-gray is not ω")
	}
}

func TestWindowClampsAtEnd(t *testing.T) {
	v := patternVideo(8, 8, 5, 15)
	ws := Window(v, 3)
	if len(ws) != 5 {
		t.Fatalf("%d windows", len(ws))
	}
	if len(ws[0]) != 3 || len(ws[3]) != 2 || len(ws[4]) != 1 {
		t.Errorf("window sizes = %d, %d, %d", len(ws[0]), len(ws[3]), len(ws[4]))
	}
}

func TestAggregateMean(t *testing.T) {
	a := video.NewFrame(4, 4)
	b := video.NewFrame(4, 4)
	a.Fill(100, 128, 128)
	b.Fill(200, 128, 128)
	m := AggregateMean([]*video.Frame{a, b})
	if m.Y[0] != 150 {
		t.Errorf("mean luma = %d, want 150", m.Y[0])
	}
	if AggregateMean(nil) != nil {
		t.Error("empty window should aggregate to nil")
	}
}

func TestPartitionRecombineIdentity(t *testing.T) {
	v := patternVideo(32, 24, 3, 15)
	regions, err := Partition(v, 10, 10) // uneven tiles exercise edges
	if err != nil {
		t.Fatal(err)
	}
	back, err := Recombine(regions, 32, 24, 15)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Frames {
		for j := range v.Frames[i].Y {
			if v.Frames[i].Y[j] != back.Frames[i].Y[j] {
				t.Fatalf("frame %d luma %d not restored", i, j)
			}
		}
	}
}

func TestPartitionCount(t *testing.T) {
	v := patternVideo(32, 32, 1, 15)
	regions, err := Partition(v, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 4 {
		t.Errorf("%d regions, want 4", len(regions))
	}
	if _, err := Partition(v, 0, 16); err == nil {
		t.Error("zero tile size should fail")
	}
}

func TestRunQ1CropsAndSelects(t *testing.T) {
	v := patternVideo(64, 48, 30, 15) // 2 seconds
	out, err := RunQ1(v, Params{X1: 16, Y1: 16, X2: 48, Y2: 40, T1: 0.5, T2: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	w, h := out.Resolution()
	if w != 32 || h != 24 {
		t.Errorf("cropped to %dx%d, want 32x24", w, h)
	}
	// Temporal selection: frames [7..22] (0.5*15=7.5 floor 7, ceil(1.5*15)=23).
	if len(out.Frames) < 14 || len(out.Frames) > 17 {
		t.Errorf("selected %d frames, want ~15", len(out.Frames))
	}
}

func TestRunQ1RejectsBadParams(t *testing.T) {
	v := patternVideo(64, 48, 15, 15)
	bad := []Params{
		{X1: 40, Y1: 0, X2: 20, Y2: 20, T1: 0, T2: 0.5},  // x reversed
		{X1: 0, Y1: 0, X2: 200, Y2: 20, T1: 0, T2: 0.5},  // x2 out of range
		{X1: 0, Y1: 0, X2: 20, Y2: 20, T1: 0.8, T2: 0.2}, // t reversed
	}
	for i, p := range bad {
		if _, err := RunQ1(v, p); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestRunQ2aMatchesGrayscale(t *testing.T) {
	v := patternVideo(32, 32, 3, 15)
	out := RunQ2a(v)
	for _, f := range out.Frames {
		for i := range f.U {
			if f.U[i] != 128 || f.V[i] != 128 {
				t.Fatal("Q2(a) left chroma information")
			}
		}
	}
}

func TestRunQ2bSmooths(t *testing.T) {
	v := patternVideo(32, 32, 2, 15)
	out, err := RunQ2b(v, Params{D: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Blur reduces local variance.
	varIn := lumaVariance(v.Frames[0])
	varOut := lumaVariance(out.Frames[0])
	if varOut >= varIn {
		t.Errorf("blur did not reduce variance: %v -> %v", varIn, varOut)
	}
}

func TestRunQ2bKernelDomain(t *testing.T) {
	v := patternVideo(32, 32, 1, 15)
	if _, err := RunQ2b(v, Params{D: 2}); err == nil {
		t.Error("kernel below domain should fail")
	}
	if _, err := RunQ2b(v, Params{D: 21}); err == nil {
		t.Error("kernel above domain should fail")
	}
}

func lumaVariance(f *video.Frame) float64 {
	var sum, sq float64
	for _, v := range f.Y {
		sum += float64(v)
		sq += float64(v) * float64(v)
	}
	n := float64(len(f.Y))
	mean := sum / n
	return sq/n - mean*mean
}

func TestGaussianKernelNormalized(t *testing.T) {
	f := func(d uint8) bool {
		size := int(d%18) + 3
		k := gaussianKernel(size)
		var sum float64
		for _, v := range k {
			sum += v
		}
		return math.Abs(sum-1) < 1e-9 && len(k) == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunQ2dMasksStaticBackground(t *testing.T) {
	v := patternVideo(32, 32, 12, 15)
	out, err := RunQ2d(v, Params{M: 6, Epsilon: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Frames) != len(v.Frames) {
		t.Fatalf("output %d frames, want %d", len(out.Frames), len(v.Frames))
	}
	// The static gradient background should be mostly masked to ω; the
	// moving square region should survive somewhere.
	f := out.Frames[0]
	masked, kept := 0, 0
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			Y, U, V := f.At(x, y)
			if IsOmega(Pixel{Y, U, V}) {
				masked++
			} else {
				kept++
			}
		}
	}
	if masked == 0 {
		t.Error("nothing masked — background removal inert")
	}
	if kept == 0 {
		t.Error("everything masked — moving foreground lost")
	}
	if float64(masked)/float64(masked+kept) < 0.5 {
		t.Errorf("only %d/%d masked; static background should dominate", masked, masked+kept)
	}
}

func TestRunQ3RoundTripsStructure(t *testing.T) {
	v := patternVideo(48, 32, 4, 15)
	out, err := RunQ3(v, Params{DX: 16, DY: 16, Bitrates: []int{1 << 20, 1 << 18}}, codec.PresetH264)
	if err != nil {
		t.Fatal(err)
	}
	w, h := out.Resolution()
	if w != 48 || h != 32 {
		t.Errorf("Q3 output %dx%d", w, h)
	}
	// Lossy, but recognizable: PSNR vs input should be decent.
	if p := framePSNR(v.Frames[0], out.Frames[0]); p < 20 {
		t.Errorf("Q3 output unrecognizable: %.1f dB", p)
	}
}

func framePSNR(a, b *video.Frame) float64 {
	var se float64
	for i := range a.Y {
		d := float64(a.Y[i]) - float64(b.Y[i])
		se += d * d
	}
	mse := se / float64(len(a.Y))
	if mse == 0 {
		return 100
	}
	return 10 * math.Log10(255*255/mse)
}

func TestRunQ4Q5Inverse(t *testing.T) {
	v := patternVideo(32, 32, 2, 15)
	up, err := RunQ4(v, Params{Alpha: 2, Beta: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, h := up.Resolution()
	if w != 64 || h != 64 {
		t.Fatalf("Q4 output %dx%d, want 64x64", w, h)
	}
	down, err := RunQ5(up, Params{Alpha: 2, Beta: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, h = down.Resolution()
	if w != 32 || h != 32 {
		t.Fatalf("Q5 output %dx%d, want 32x32", w, h)
	}
	// Down(Up(x)) ≈ x.
	if p := framePSNR(v.Frames[0], down.Frames[0]); p < 30 {
		t.Errorf("up/down round trip %.1f dB", p)
	}
}

func TestQ4Q5DomainValidation(t *testing.T) {
	v := patternVideo(32, 32, 1, 15)
	for _, p := range []Params{{Alpha: 3, Beta: 2}, {Alpha: 2, Beta: 64}, {Alpha: 1, Beta: 2}} {
		if _, err := RunQ4(v, p); err == nil {
			t.Errorf("Q4 should reject %+v", p)
		}
		if _, err := RunQ5(v, p); err == nil {
			t.Errorf("Q5 should reject %+v", p)
		}
	}
}

func TestRunQ6aOverlay(t *testing.T) {
	v := patternVideo(32, 32, 2, 15)
	boxes := video.NewVideo(15)
	for i := 0; i < 2; i++ {
		bf := video.NewFrame(32, 32) // all ω
		for y := 4; y < 12; y++ {
			for x := 4; x < 12; x++ {
				bf.Set(x, y, 200, 40, 40)
			}
		}
		boxes.Append(bf)
	}
	out, err := RunQ6a(v, boxes)
	if err != nil {
		t.Fatal(err)
	}
	// Inside the box: box color wins; outside: input survives.
	yIn, _, _ := out.Frames[0].At(6, 6)
	if yIn != 200 {
		t.Errorf("overlay pixel luma %d, want 200", yIn)
	}
	yOut, _, _ := out.Frames[0].At(20, 20)
	yWant, _, _ := v.Frames[0].At(20, 20)
	if yOut != yWant {
		t.Errorf("outside pixel %d, want input %d", yOut, yWant)
	}
}

func TestSerializeParseDetectionsRoundTrip(t *testing.T) {
	dets := [][]metrics.Detection{
		{
			{Box: geom.Rect{MinX: 1, MinY: 2, MaxX: 30, MaxY: 40}, Class: "Vehicle", Confidence: 0.875},
			{Box: geom.Rect{MinX: 5.5, MinY: 6.25, MaxX: 9, MaxY: 12}, Class: "Pedestrian", Confidence: 0.5},
		},
		{}, // empty frame
		{
			{Box: geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 50}, Class: "Vehicle", Confidence: 0.99},
		},
	}
	got, err := ParseDetections(SerializeDetections(dets))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d frames", len(got))
	}
	for f := range dets {
		if len(got[f]) != len(dets[f]) {
			t.Fatalf("frame %d: %d detections, want %d", f, len(got[f]), len(dets[f]))
		}
		for i := range dets[f] {
			a, b := dets[f][i], got[f][i]
			if a.Class != b.Class {
				t.Errorf("frame %d det %d class %q != %q", f, i, b.Class, a.Class)
			}
			if math.Abs(a.Confidence-b.Confidence) > 1e-6 {
				t.Errorf("frame %d det %d confidence %v != %v", f, i, b.Confidence, a.Confidence)
			}
			if math.Abs(a.Box.MinX-b.Box.MinX) > 1e-4 || math.Abs(a.Box.MaxY-b.Box.MaxY) > 1e-4 {
				t.Errorf("frame %d det %d box %+v != %+v", f, i, b.Box, a.Box)
			}
		}
	}
}

func TestParseDetectionsRejectsGarbage(t *testing.T) {
	for _, bad := range [][]byte{
		nil,
		[]byte("nope"),
		[]byte("VRBX\x02\x00\x00\x00\x01"), // bad version
		SerializeDetections([][]metrics.Detection{{}})[:7], // truncated
	} {
		if _, err := ParseDetections(bad); err == nil {
			t.Errorf("ParseDetections(%q) should fail", bad)
		}
	}
}

func TestRenderBoxesVideoFiltersClasses(t *testing.T) {
	dets := [][]metrics.Detection{{
		{Box: geom.Rect{MinX: 2, MinY: 2, MaxX: 10, MaxY: 10}, Class: "Vehicle", Confidence: 0.9},
		{Box: geom.Rect{MinX: 20, MinY: 2, MaxX: 28, MaxY: 10}, Class: "Pedestrian", Confidence: 0.9},
	}}
	v := RenderBoxesVideo(32, 16, 15, dets, map[string]bool{"Vehicle": true})
	f := v.Frames[0]
	yVeh, _, _ := f.At(5, 5)
	yPed, _, _ := f.At(24, 5)
	if yVeh == Omega.Y {
		t.Error("vehicle box not rendered")
	}
	if yPed != Omega.Y {
		t.Error("pedestrian box rendered despite filter")
	}
}

// TestParseList: both spellings, any case, surrounding spaces; an
// unknown name fails; the empty list is the full suite (nil).
func TestParseList(t *testing.T) {
	got, err := ParseList("Q1, q2a,Q2(B) ,q10,Q6b")
	if want := []QueryID{Q1, Q2a, Q2b, Q10, Q6b}; err != nil || !slices.Equal(got, want) {
		t.Errorf("ParseList = %v, %v; want %v", got, err, want)
	}
	if qs, err := ParseList(""); qs != nil || err != nil {
		t.Errorf("ParseList(\"\") = %v, %v; want nil, nil", qs, err)
	}
	for _, bad := range []string{"Q11", "Q1,", "Q2", "Q1,,Q5"} {
		if _, err := ParseList(bad); err == nil {
			t.Errorf("ParseList(%q) accepted", bad)
		}
	}
}

// TestParseListAllocatesOnlyItsResult pins the per-job cost of parsing
// a submitted query list: the name table is built once, so a list in
// the usual spellings allocates the returned slice and nothing else.
func TestParseListAllocatesOnlyItsResult(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseList("Q1,Q2a,Q2(b),q5,Q6a"); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("ParseList allocates %.1f times, want 1 (its result)", allocs)
	}
}
