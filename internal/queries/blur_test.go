package queries

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// blurWidths are the output counts the blur kernels are held to their
// twins at: every width to 80, so every tail of the 16-output loop (two
// outputs at a time, then one), and the plane widths the presets blur.
func blurWidths() []int {
	var ws []int
	for w := 1; w <= 80; w++ {
		ws = append(ws, w)
	}
	return append(ws, 120, 192, 240)
}

// narrowSums are samples that, through a one-tap kernel of weight 1, are
// the sum itself: far outside [0, 255] both ways, both zeros, and 255.5
// (and 0.5) one ulp either side, where clamping, adding ½ and truncating
// each decide the byte.
var narrowSums = []float64{
	-1e9, math.Copysign(0, -1), 0, 1e9,
	math.Nextafter(255.5, 0), 255.5, math.Nextafter(255.5, 1e9),
	math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1), -0.5, 254.5, 255, 256,
}

// checkBlurKernels holds blurTaps and blurTapsByte to their generic twins
// on the n outputs over p, taps stride apart, with p ending at the last
// sample the last tap reads; each output slice sits in a buffer whose
// tail must come back untouched.
func checkBlurKernels(t *testing.T, p []float64, n, stride int, k []float64) {
	t.Helper()
	p = p[:(len(k)-1)*stride+n]
	const guard = 5
	got, want := make([]float64, n+guard), make([]float64, n+guard)
	for i := range got {
		got[i], want[i] = math.NaN(), math.NaN()
	}
	blurTaps(got[:n], p, stride, k)
	blurTapsGeneric(want[:n], p, stride, k)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("blurTaps d=%d n=%d stride=%d: output %d is %v (%#x), want %v (%#x)",
				len(k), n, stride, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	gb, wb := make([]byte, n+guard), make([]byte, n+guard)
	for i := range gb {
		gb[i], wb[i] = 0xA5, 0xA5
	}
	blurTapsByte(gb[:n], p, stride, k)
	blurTapsByteGeneric(wb[:n], p, stride, k)
	if !slices.Equal(gb, wb) {
		t.Fatalf("blurTapsByte d=%d n=%d stride=%d: %v, want %v", len(k), n, stride, gb, wb)
	}
}

// TestBlurKernelsMatchGeneric holds every SSE2 blur kernel to its generic
// twin, as float64 bits (on other architectures the two are one function
// and this is a self-check): d = 1…20 at every width of blurWidths, as
// the horizontal pass calls them (taps one apart) and as the vertical
// pass does (taps a row apart), on widened samples with the Gaussian
// taps and on arbitrary floats with arbitrary taps — whose sums depend on
// the order they are added in — and on the narrow sums.
func TestBlurKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, w := range blurWidths() {
		src := make([]byte, w)
		rng.Read(src)
		got, want := make([]float64, w+1), make([]float64, w+1)
		got[w], want[w] = -1, -1
		widen(got[:w], src)
		widenGeneric(want[:w], src)
		if !slices.Equal(got, want) {
			t.Fatalf("widen w=%d: %v, want %v", w, got, want)
		}
	}
	for d := 1; d <= 20; d++ {
		gauss := gaussianKernel(d)
		wild := make([]float64, d)
		for _, w := range blurWidths() {
			for i := range wild {
				wild[i] = rng.NormFloat64()
			}
			p := make([]float64, d*(w+d))
			for i := range p {
				p[i] = float64(rng.Intn(256))
			}
			checkBlurKernels(t, p, w, 1, gauss)
			checkBlurKernels(t, p, w, w, gauss)
			for i := range p {
				p[i] = rng.Float64()*900 - 300
			}
			checkBlurKernels(t, p, w, 1, wild)
			checkBlurKernels(t, p, w, w+3, wild)
		}
	}
	for _, w := range blurWidths() {
		p := make([]float64, w)
		for i := range p {
			p[i] = narrowSums[(i+w)%len(narrowSums)]
		}
		checkBlurKernels(t, p, w, 1, []float64{1})
	}
}

// TestBlurKernelsRefuseOutOfSlice: a call whose last tap reads one sample
// past p, whose output does not fit dst, or whose stride is negative
// panics before any kernel runs.
func TestBlurKernelsRefuseOutOfSlice(t *testing.T) {
	k := gaussianKernel(5)
	p := make([]float64, 4*20+20)
	dst, dstb := make([]float64, 20), make([]byte, 20)
	for name, call := range map[string]func(){
		"blurTaps short":         func() { blurTaps(dst, p[:len(p)-1], 20, k) },
		"blurTaps negative":      func() { blurTaps(dst[:4], p[80:], -20, k) },
		"blurTapsByte short":     func() { blurTapsByte(dstb, p[:len(p)-1], 20, k) },
		"blurTapsByte negative":  func() { blurTapsByte(dstb[:4], p[80:], -20, k) },
		"blurTapsByte one wider": func() { blurTapsByte(make([]byte, 21), p, 20, k) },
		"widen short":            func() { widen(dst[:19], dstb) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzBlurPlane is the blur's identity on arbitrary planes: blurrer.plane
// equals the clamp-every-tap blurPlane for d = 0…20 and any plane of up
// to 240×40 samples that data fills.
func FuzzBlurPlane(f *testing.F) {
	f.Add(uint8(13), uint8(192), uint8(6), []byte{0, 255})
	f.Add(uint8(20), uint8(17), uint8(3), []byte{255})
	f.Add(uint8(8), uint8(120), uint8(2), []byte{1, 2, 3, 250, 128})
	f.Add(uint8(1), uint8(1), uint8(1), []byte{7})
	f.Add(uint8(0), uint8(5), uint8(5), []byte{9})
	f.Fuzz(func(t *testing.T, d, w, h uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		dd, ww, hh := int(d)%21, 1+int(w)%240, 1+int(h)%40
		src := make([]byte, ww*hh)
		for i := range src {
			src[i] = data[i%len(data)] + byte(i/len(data))
		}
		got, want := make([]byte, len(src)), make([]byte, len(src))
		newBlurrer(dd).plane(got, src, ww, hh)
		blurPlane(want, src, ww, hh, gaussianKernel(dd))
		if !slices.Equal(got, want) {
			t.Fatalf("d=%d %dx%d: blurrer.plane diverges from blurPlane", dd, ww, hh)
		}
	})
}

// Hashes of the Q2(b) kernels' float64 bits and of the blurred noise
// frame, d = 3…20 (TestBlurGolden): the bits math.Exp gives on an amd64
// CPU with FMA, which gaussExp reproduces everywhere. Without FMA
// (GODEBUG=cpu.fma=off) math.Exp changes the last bit of weights of
// d = 6, 10, 17 and 18, and with it the first hash.
const (
	blurKernelsGolden = "da1db7e84e667267fbb193d0a334c6c4ef54cc9ee203507613db622816c7d11f"
	blurFramesGolden  = "5b4abc137a82aebf78918f3d6312ea89900937cf04c5920e6b49210507693e03"
)

// TestBlurGolden pins Q2(b)'s output bits across architectures and CPUs:
// the kernel of every d in Table 3's range, and a 93×27 noise frame (a
// luma tail of 13 columns, a chroma tail of 15) blurred with it.
func TestBlurGolden(t *testing.T) {
	kh, fh := sha256.New(), sha256.New()
	f := noiseFrame(93, 27, 0, 28)
	for d := 3; d <= 20; d++ {
		for _, v := range gaussianKernel(d) {
			kh.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
		out := newBlurrer(d).frame(f)
		fh.Write(out.Y)
		fh.Write(out.U)
		fh.Write(out.V)
	}
	if got := fmt.Sprintf("%x", kh.Sum(nil)); got != blurKernelsGolden {
		t.Errorf("gaussianKernel(3…20) bits hash to %s, want %s", got, blurKernelsGolden)
	}
	if got := fmt.Sprintf("%x", fh.Sum(nil)); got != blurFramesGolden {
		t.Errorf("blurred frames (d = 3…20) hash to %s, want %s", got, blurFramesGolden)
	}
}
