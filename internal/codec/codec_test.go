package codec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/video"
)

// gradientVideo builds a smooth, slowly translating gradient — a stand-in
// for structured, inter-frame-correlated video.
func gradientVideo(w, h, n int) *video.Video {
	v := video.NewVideo(30)
	for i := 0; i < n; i++ {
		f := video.NewFrame(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				f.SetY(x, y, byte((x*2+y+i*3)%220+16))
			}
		}
		for y := 0; y < f.ChromaH(); y++ {
			for x := 0; x < f.ChromaW(); x++ {
				f.U[y*f.ChromaW()+x] = byte(100 + (x+i)%50)
				f.V[y*f.ChromaW()+x] = byte(110 + (y+i)%40)
			}
		}
		v.Append(f)
	}
	return v
}

func noiseVideo(w, h, n int, seed int64) *video.Video {
	rng := rand.New(rand.NewSource(seed))
	v := video.NewVideo(30)
	for i := 0; i < n; i++ {
		f := video.NewFrame(w, h)
		rng.Read(f.Y)
		rng.Read(f.U)
		rng.Read(f.V)
		v.Append(f)
	}
	return v
}

func psnr(a, b *video.Frame) float64 {
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

func TestRoundTripHighQuality(t *testing.T) {
	src := gradientVideo(64, 48, 10)
	enc, err := EncodeVideo(src, Config{QP: 4, GOP: 5})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := enc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Frames) != len(src.Frames) {
		t.Fatalf("decoded %d frames, want %d", len(dec.Frames), len(src.Frames))
	}
	for i := range src.Frames {
		if p := psnr(src.Frames[i], dec.Frames[i]); p < 40 {
			t.Errorf("frame %d PSNR %.1f dB, want >= 40", i, p)
		}
	}
}

func TestCompressionGainOnStructuredVideo(t *testing.T) {
	w, h, n := 96, 64, 12
	structured := gradientVideo(w, h, n)
	noise := noiseVideo(w, h, n, 1)
	es, err := EncodeVideo(structured, Config{QP: 24})
	if err != nil {
		t.Fatal(err)
	}
	en, err := EncodeVideo(noise, Config{QP: 24})
	if err != nil {
		t.Fatal(err)
	}
	raw := w * h * n * 3 / 2
	if es.Size() >= raw/4 {
		t.Errorf("structured video compressed to %d bytes; want < raw/4 = %d", es.Size(), raw/4)
	}
	if en.Size() < es.Size()*3 {
		t.Errorf("noise compressed to %d bytes vs structured %d; expected noise to be >= 3x larger",
			en.Size(), es.Size())
	}
}

func TestHEVCPresetSmallerThanH264(t *testing.T) {
	src := gradientVideo(96, 64, 10)
	h264, err := EncodeVideo(src, Config{QP: 24, Preset: PresetH264})
	if err != nil {
		t.Fatal(err)
	}
	hevc, err := EncodeVideo(src, Config{QP: 24, Preset: PresetHEVC})
	if err != nil {
		t.Fatal(err)
	}
	// HEVC's QP bias means finer quantization: not necessarily smaller,
	// but decoded quality must be at least as good.
	dh, _ := h264.Decode()
	de, _ := hevc.Decode()
	var ph, pe float64
	for i := range src.Frames {
		ph += psnr(src.Frames[i], dh.Frames[i])
		pe += psnr(src.Frames[i], de.Frames[i])
	}
	if pe < ph {
		t.Errorf("HEVC preset mean PSNR %.1f < H264 %.1f", pe/float64(len(src.Frames)), ph/float64(len(src.Frames)))
	}
}

func TestRateControlTracksTarget(t *testing.T) {
	src := gradientVideo(96, 64, 60)
	target := 200 // kbps
	enc, err := EncodeVideo(src, Config{BitrateKbps: target, GOP: 15})
	if err != nil {
		t.Fatal(err)
	}
	seconds := src.Duration()
	actualKbps := float64(enc.Size()*8) / 1000 / seconds
	if actualKbps > float64(target)*2.0 {
		t.Errorf("rate control produced %.0f kbps for a %d kbps target", actualKbps, target)
	}
}

func TestDecoderRejectsPFrameFirst(t *testing.T) {
	src := gradientVideo(32, 32, 3)
	enc, err := EncodeVideo(src, Config{QP: 20, GOP: 10})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(enc.Config)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(enc.Frames[1].Data); err == nil {
		t.Error("decoding a P-frame without a keyframe should fail")
	}
}

func TestDecoderRejectsTruncated(t *testing.T) {
	src := gradientVideo(32, 32, 1)
	enc, err := EncodeVideo(src, Config{QP: 20})
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := NewDecoder(enc.Config)
	data := enc.Frames[0].Data
	if len(data) < 8 {
		t.Skip("frame too small to truncate meaningfully")
	}
	if _, err := dec.Decode(data[:len(data)/4]); err == nil {
		t.Error("decoding a truncated access unit should fail")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	src := gradientVideo(48, 48, 8)
	a, err := EncodeVideo(src, Config{QP: 22})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeVideo(src, Config{QP: 22})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Frames {
		if !bytes.Equal(a.Frames[i].Data, b.Frames[i].Data) {
			t.Fatalf("frame %d differs between identical encodes", i)
		}
	}
}

func TestExpGolombRoundTrip(t *testing.T) {
	f := func(vals []uint32) bool {
		w := &bitWriter{}
		for _, v := range vals {
			w.writeUE(v % (1 << 20))
		}
		r := &bitReader{buf: w.bytes()}
		for _, v := range vals {
			got, err := r.readUE()
			if err != nil || got != v%(1<<20) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignedExpGolombRoundTrip(t *testing.T) {
	f := func(vals []int32) bool {
		w := &bitWriter{}
		for _, v := range vals {
			w.writeSE(v % (1 << 20))
		}
		r := &bitReader{buf: w.bytes()}
		for _, v := range vals {
			got, err := r.readSE()
			if err != nil || got != v%(1<<20) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDCTInverts: the inverse undoes the forward transform to within a
// sample once each coefficient is divided by its basis norms, as the
// dequantizer's scale does.
func TestDCTInverts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var src [64]int32
		for i := range src {
			src[i] = int32(rng.Intn(511) - 255)
		}
		var coefs, back [64]int32
		fdct8Generic(&src, &coefs)
		for z, c := range coefs {
			// 256·c/(nₖ·nⱼ)², in the inverse's units: 2²⁰·c/classNorm2.
			n := classNorm2[posClass(z>>3, z&7)]
			coefs[z] = int32((int64(c)<<21/n + 1) >> 1)
		}
		idct8(&coefs, &back, 0xFF, 0xFF)
		for i := range src {
			d := src[i] - back[i]
			if d < -1 || d > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeLosslessAtQPZero(t *testing.T) {
	var res [64]int32
	for i := range res {
		res[i] = int32((i*7)%200 - 100)
	}
	var levels [64]int32
	back := res
	if quantizeResidual(&back, sumAbsOf(&res), tablesFor(0), &levels) == 0 {
		t.Fatal("block not coded")
	}
	for i := range res {
		d := res[i] - back[i]
		if d < -2 || d > 2 {
			t.Fatalf("position %d: %d -> %d", i, res[i], back[i])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Width: 0, Height: 10},
		{Width: 10, Height: -1},
		{Width: 10, Height: 10, QP: 99},
	}
	for i, c := range cases {
		cc := c.withDefaults()
		if c.QP != 0 {
			cc.QP = c.QP
		}
		if err := cc.Validate(); err == nil {
			t.Errorf("case %d: Validate() accepted invalid config %+v", i, c)
		}
	}
}

func TestEncoderRejectsWrongDimensions(t *testing.T) {
	enc, err := NewEncoder(Config{Width: 64, Height: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Encode(video.NewFrame(32, 32)); err == nil {
		t.Error("encoder should reject mismatched frame dimensions")
	}
}

func TestOddDimensions(t *testing.T) {
	// Non-multiple-of-16 dimensions must round-trip via padding.
	src := gradientVideo(53, 37, 4)
	enc, err := EncodeVideo(src, Config{QP: 8})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := enc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	w, h := dec.Resolution()
	if w != 53 || h != 37 {
		t.Fatalf("decoded resolution %dx%d, want 53x37", w, h)
	}
	for i := range src.Frames {
		if p := psnr(src.Frames[i], dec.Frames[i]); p < 38 {
			t.Errorf("frame %d PSNR %.1f dB too low for QP 8", i, p)
		}
	}
}

func TestKeyframeFlagsFollowGOP(t *testing.T) {
	src := gradientVideo(48, 48, 10)
	enc, err := EncodeVideo(src, Config{QP: 22, GOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range enc.Frames {
		want := i%4 == 0
		if f.Keyframe != want {
			t.Errorf("frame %d keyframe = %v, want %v", i, f.Keyframe, want)
		}
	}
}

func TestDecodeFromMidGOPKeyframe(t *testing.T) {
	// A decoder joining at a keyframe boundary must produce valid
	// frames from that point on (random access contract).
	src := gradientVideo(48, 48, 10)
	enc, err := EncodeVideo(src, Config{QP: 10, GOP: 5})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(enc.Config)
	if err != nil {
		t.Fatal(err)
	}
	// Join at frame 5 (a keyframe) and decode the rest.
	for i := 5; i < 10; i++ {
		f, err := dec.Decode(enc.Frames[i].Data)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if p := psnr(src.Frames[i], f); p < 35 {
			t.Errorf("mid-stream join frame %d PSNR %.1f", i, p)
		}
	}
}

func TestStaticSceneCompressesToSkips(t *testing.T) {
	// A perfectly static video should cost almost nothing after the
	// keyframe: P-frames become all-skip macroblocks.
	v := video.NewVideo(15)
	base := video.NewFrame(64, 64)
	for i := range base.Y {
		base.Y[i] = byte(40 + i%120)
	}
	for i := 0; i < 10; i++ {
		f := base.Clone()
		f.Index = i
		v.Append(f)
	}
	enc, err := EncodeVideo(v, Config{QP: 24, GOP: 100})
	if err != nil {
		t.Fatal(err)
	}
	key := len(enc.Frames[0].Data)
	for i := 1; i < 10; i++ {
		if p := len(enc.Frames[i].Data); p > key/10 {
			t.Errorf("static P-frame %d costs %d bytes (keyframe %d)", i, p, key)
		}
	}
}

func TestRateControlConvergesAcrossGOPs(t *testing.T) {
	src := gradientVideo(96, 64, 90)
	enc, err := EncodeVideo(src, Config{BitrateKbps: 100, GOP: 15, FPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	// The second half of the stream should be closer to target than a
	// naive constant-QP start: measure second-half rate.
	half := 0
	for _, f := range enc.Frames[45:] {
		half += len(f.Data)
	}
	kbps := float64(half*8) / 1000 / (1.5) // 45 frames at 30fps = 1.5s
	if kbps > 200 || kbps < 25 {
		t.Errorf("converged rate %.0f kbps for a 100 kbps target", kbps)
	}
}

// TestParallelMEBitstreamIdentical asserts the row-parallel analysis
// pass changes nothing about the emitted bitstream: every frame's bytes
// and keyframe flag match a Workers=1 encode exactly, for both
// constant-QP and rate-controlled configurations.
func TestParallelMEBitstreamIdentical(t *testing.T) {
	for _, cfg := range []Config{
		{QP: 20, GOP: 6},
		{QP: 8, GOP: 4, Preset: PresetHEVC},
		{BitrateKbps: 120, GOP: 10, FPS: 30},
	} {
		src := gradientVideo(96, 80, 12)
		serial := cfg
		serial.Workers = 1
		par := cfg
		par.Workers = 4
		a, err := EncodeVideo(src, serial)
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodeVideo(src, par)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Frames) != len(b.Frames) {
			t.Fatalf("cfg %+v: frame counts differ: %d vs %d", cfg, len(a.Frames), len(b.Frames))
		}
		for i := range a.Frames {
			if a.Frames[i].Keyframe != b.Frames[i].Keyframe {
				t.Fatalf("cfg %+v: frame %d keyframe flag differs", cfg, i)
			}
			if !bytes.Equal(a.Frames[i].Data, b.Frames[i].Data) {
				t.Fatalf("cfg %+v: frame %d bitstream differs between 1 and 4 workers", cfg, i)
			}
		}
	}
}

// TestWorkersNotPartOfStreamConfig: Workers is an execution knob, not a
// stream property — the encoder's effective Config must not carry it,
// so Encoded.Config comparisons and container round-trips are unaffected.
func TestWorkersNotPartOfStreamConfig(t *testing.T) {
	enc, err := NewEncoder(Config{Width: 64, Height: 48, FPS: 30, QP: 24, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := enc.Config().Workers; got != 0 {
		t.Errorf("effective Config.Workers = %d, want 0", got)
	}
}
