package video

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

func TestNewFrameIsBlack(t *testing.T) {
	f := NewFrame(8, 6)
	for _, y := range f.Y {
		if y != 16 {
			t.Fatalf("luma initialized to %d, want 16", y)
		}
	}
	for i := range f.U {
		if f.U[i] != 128 || f.V[i] != 128 {
			t.Fatalf("chroma initialized to (%d, %d), want neutral", f.U[i], f.V[i])
		}
	}
}

func TestNewFramePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFrame(0, 5) should panic")
		}
	}()
	NewFrame(0, 5)
}

func TestChromaDimensionsRoundUp(t *testing.T) {
	f := NewFrame(5, 3)
	if f.ChromaW() != 3 || f.ChromaH() != 2 {
		t.Errorf("chroma dims = %dx%d, want 3x2", f.ChromaW(), f.ChromaH())
	}
	if len(f.U) != 6 || len(f.V) != 6 {
		t.Errorf("chroma plane sizes %d/%d, want 6", len(f.U), len(f.V))
	}
}

func TestSetAndAt(t *testing.T) {
	f := NewFrame(4, 4)
	f.Set(2, 3, 100, 90, 80)
	y, u, v := f.At(2, 3)
	if y != 100 || u != 90 || v != 80 {
		t.Errorf("At = (%d, %d, %d)", y, u, v)
	}
	// Chroma is shared across the 2x2 block.
	_, u2, v2 := f.At(3, 3)
	if u2 != 90 || v2 != 80 {
		t.Errorf("neighbor chroma = (%d, %d), want shared", u2, v2)
	}
}

func TestCloneIndependent(t *testing.T) {
	f := NewFrame(4, 4)
	f.SetY(1, 1, 200)
	g := f.Clone()
	g.SetY(1, 1, 50)
	if f.Y[1*4+1] != 200 {
		t.Error("Clone should not share luma storage")
	}
}

func TestCropBasic(t *testing.T) {
	f := NewFrame(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			f.SetY(x, y, byte(y*8+x))
		}
	}
	c := f.Crop(2, 3, 6, 7)
	if c.W != 4 || c.H != 4 {
		t.Fatalf("crop dims %dx%d, want 4x4", c.W, c.H)
	}
	if c.Y[0] != byte(3*8+2) {
		t.Errorf("crop top-left luma = %d, want %d", c.Y[0], 3*8+2)
	}
}

func TestCropClampsOutOfBounds(t *testing.T) {
	f := NewFrame(8, 8)
	c := f.Crop(-5, -5, 100, 100)
	if c.W != 8 || c.H != 8 {
		t.Errorf("clamped crop = %dx%d, want full frame", c.W, c.H)
	}
	d := f.Crop(7, 7, 7, 7)
	if d.W < 1 || d.H < 1 {
		t.Errorf("degenerate crop = %dx%d, want at least 1x1", d.W, d.H)
	}
}

func TestGrayscaleDropsChroma(t *testing.T) {
	f := NewFrame(4, 4)
	f.Set(0, 0, 120, 30, 220)
	g := f.Grayscale()
	y, u, v := g.At(0, 0)
	if y != 120 {
		t.Errorf("grayscale changed luma: %d", y)
	}
	if u != 128 || v != 128 {
		t.Errorf("grayscale chroma = (%d, %d), want neutral", u, v)
	}
	// Original untouched.
	if _, u0, _ := f.At(0, 0); u0 != 30 {
		t.Error("Grayscale mutated its input")
	}
}

// TestGrayscaleOverwritesRecycledFrames: Grayscale's frame comes from
// the registry with unspecified contents — stale or, under -race,
// poisoned samples of a recycled frame — and none shows through.
func TestGrayscaleOverwritesRecycledFrames(t *testing.T) {
	for range 4 {
		stale := GetFrame(5, 3)
		stale.Fill(0xAA, 0xAA, 0xAA)
		PutFrame(stale)
		src := NewFrame(5, 3)
		src.Fill(77, 30, 220)
		g := src.Grayscale()
		for i := range g.Y {
			if g.Y[i] != 77 {
				t.Fatalf("luma sample %d reads %d, want 77", i, g.Y[i])
			}
		}
		for i := range g.U {
			if g.U[i] != 128 || g.V[i] != 128 {
				t.Fatalf("chroma sample %d reads %d/%d, want 128", i, g.U[i], g.V[i])
			}
		}
	}
}

func TestBilinearResizeIdentity(t *testing.T) {
	f := NewFrame(16, 12)
	for i := range f.Y {
		f.Y[i] = byte(i % 251)
	}
	g := f.BilinearResize(16, 12)
	for i := range f.Y {
		if f.Y[i] != g.Y[i] {
			t.Fatalf("identity resize changed luma at %d: %d != %d", i, f.Y[i], g.Y[i])
		}
	}
}

func TestBilinearResizeConstant(t *testing.T) {
	f := NewFrame(8, 8)
	f.Fill(77, 100, 150)
	g := f.BilinearResize(32, 32)
	for i, v := range g.Y {
		if v != 77 {
			t.Fatalf("upsampled constant frame has luma %d at %d", v, i)
		}
	}
}

func TestDownsampleAveragesBlocks(t *testing.T) {
	f := NewFrame(4, 4)
	// Left half 0+..., right half 200.
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if x < 2 {
				f.SetY(x, y, 100)
			} else {
				f.SetY(x, y, 200)
			}
		}
	}
	g := f.Downsample(2, 2)
	if g.Y[0] != 100 || g.Y[1] != 200 {
		t.Errorf("downsample = [%d %d], want [100 200]", g.Y[0], g.Y[1])
	}
}

func TestDownsampleUpTargetFallsBackToBilinear(t *testing.T) {
	f := NewFrame(4, 4)
	f.Fill(50, 128, 128)
	g := f.Downsample(8, 8)
	if g.W != 8 || g.H != 8 {
		t.Fatalf("dims %dx%d", g.W, g.H)
	}
	if g.Y[0] != 50 {
		t.Errorf("luma %d, want 50", g.Y[0])
	}
}

func TestVideoAppendSetsIndex(t *testing.T) {
	v := NewVideo(30)
	for i := 0; i < 3; i++ {
		v.Append(NewFrame(2, 2))
	}
	for i, f := range v.Frames {
		if f.Index != i {
			t.Errorf("frame %d has Index %d", i, f.Index)
		}
	}
	if d := v.Duration(); d != 0.1 {
		t.Errorf("Duration = %v, want 0.1", d)
	}
}

func TestVideoResolutionEmpty(t *testing.T) {
	v := NewVideo(30)
	if w, h := v.Resolution(); w != 0 || h != 0 {
		t.Errorf("empty Resolution = %dx%d", w, h)
	}
}

// Reader is a forward-only iterator over decoded frames. Next returns
// io.EOF after the final frame.
type Reader interface {
	Next() (*Frame, error)
}

// Reader returns a forward-only iterator over the video's frames.
func (v *Video) Reader() Reader {
	return &sliceReader{frames: v.Frames}
}

type sliceReader struct {
	frames []*Frame
	pos    int
}

func (r *sliceReader) Next() (*Frame, error) {
	if r.pos >= len(r.frames) {
		return nil, io.EOF
	}
	f := r.frames[r.pos]
	r.pos++
	return f, nil
}

func TestReaderDrainsAndEOF(t *testing.T) {
	v := NewVideo(30)
	v.Append(NewFrame(2, 2))
	v.Append(NewFrame(2, 2))
	r := v.Reader()
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Errorf("read %d frames, want 2", n)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Error("Next after EOF should keep returning EOF")
	}
}

func TestYUVRoundTrip(t *testing.T) {
	f := func(r, g, b uint8) bool {
		c := Color{r, g, b}
		y, u, v := c.YUV()
		back := rgbFromYUV(y, u, v)
		// Studio-range YUV is lossy; allow a small tolerance.
		within := func(a, b uint8) bool {
			d := int(a) - int(b)
			if d < 0 {
				d = -d
			}
			return d <= 6
		}
		return within(back.R, r) && within(back.G, g) && within(back.B, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// rgbFromYUV converts a studio-range BT.601 YUV triple back to RGB, the
// inverse TestYUVRoundTrip holds Color.YUV to.
func rgbFromYUV(y, u, v byte) Color {
	yf := float64(y) - 16
	uf := float64(u) - 128
	vf := float64(v) - 128
	r := 1.164*yf + 1.596*vf
	g := 1.164*yf - 0.392*uf - 0.813*vf
	b := 1.164*yf + 2.017*uf
	return Color{uint8(clampByte(r)), uint8(clampByte(g)), uint8(clampByte(b))}
}

func TestColorLerpEndpoints(t *testing.T) {
	a := Color{0, 100, 200}
	b := Color{250, 20, 10}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp 0 = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp 1 = %v", got)
	}
}

func TestColorScaleClamps(t *testing.T) {
	c := Color{200, 200, 200}.Scale(2)
	if c.R != 255 || c.G != 255 || c.B != 255 {
		t.Errorf("Scale(2) = %v, want saturated", c)
	}
}

// boxPlaneRef is boxPlane as it was before its bounds were hoisted: two
// integer divisions per output sample and a re-sliced source row per box
// row. It is the reference the kernel must equal byte for byte.
func boxPlaneRef(dst []byte, dw, dh int, src []byte, sw, sh int) {
	if dw <= 0 || dh <= 0 {
		return
	}
	for y := 0; y < dh; y++ {
		sy0 := y * sh / dh
		sy1 := (y + 1) * sh / dh
		if sy1 <= sy0 {
			sy1 = sy0 + 1
		}
		for x := 0; x < dw; x++ {
			sx0 := x * sw / dw
			sx1 := (x + 1) * sw / dw
			if sx1 <= sx0 {
				sx1 = sx0 + 1
			}
			sum, n := 0, 0
			for sy := sy0; sy < sy1; sy++ {
				row := src[sy*sw:]
				for sx := sx0; sx < sx1; sx++ {
					sum += int(row[sx])
					n++
				}
			}
			dst[y*dw+x] = byte((sum + n/2) / n)
		}
	}
}

// TestBoxPlaneMatchesReference: Q5's kernel over integer and
// non-integer ratios, on the luma plane and on the (rounded-up, so
// often odd-sized) chroma planes Downsample hands it.
func TestBoxPlaneMatchesReference(t *testing.T) {
	for _, c := range []struct{ sw, sh, dw, dh int }{
		{192, 108, 96, 54}, {192, 108, 64, 36}, {192, 108, 27, 15}, {192, 108, 1, 1},
		{5, 3, 2, 2}, {191, 107, 95, 53}, {7, 5, 3, 4}, {9, 9, 8, 2},
	} {
		src := NewFrame(c.sw, c.sh)
		rng := uint32(c.sw*131 + c.dh)
		for _, p := range [][]byte{src.Y, src.U, src.V} {
			for i := range p {
				rng = rng*1664525 + 1013904223
				p[i] = byte(rng >> 24)
			}
		}
		got := src.Downsample(c.dw, c.dh)
		want := NewFrame(c.dw, c.dh)
		boxPlaneRef(want.Y, c.dw, c.dh, src.Y, c.sw, c.sh)
		boxPlaneRef(want.U, want.ChromaW(), want.ChromaH(), src.U, src.ChromaW(), src.ChromaH())
		boxPlaneRef(want.V, want.ChromaW(), want.ChromaH(), src.V, src.ChromaW(), src.ChromaH())
		if !bytes.Equal(got.Y, want.Y) || !bytes.Equal(got.U, want.U) || !bytes.Equal(got.V, want.V) {
			t.Errorf("%dx%d -> %dx%d: Downsample differs from the reference box filter", c.sw, c.sh, c.dw, c.dh)
		}
	}
}

// TestUnfilledConstructorsWriteEverySample holds the constructors that
// skip NewFrame's black fill to their side of the bargain: every luma
// and chroma sample of the result is written. A pooled frame is poisoned
// and recycled first, so the pool has stale content to hand out; the
// sources hold no zero and no poison sample and every constructor here
// copies or averages, so a zero — the byte of a fresh unfilled allocation — or a
// poison byte in a result is a sample nobody wrote. Odd dimensions put
// the chroma planes' rounded-up last row and column under the check.
func TestUnfilledConstructorsWriteEverySample(t *testing.T) {
	const poison = 0xAA
	for _, dim := range [][2]int{{1, 1}, {2, 2}, {3, 5}, {7, 4}, {16, 16}, {33, 17}, {64, 48}} {
		w, h := dim[0], dim[1]
		pool := NewFramePool(w, h)
		stale := pool.Get()
		stale.Fill(poison, poison, poison)
		pool.Put(stale)

		src := pool.Get() // unspecified content: every sample is set below
		if len(src.Y) != w*h || len(src.U) != src.ChromaW()*src.ChromaH() || len(src.V) != len(src.U) ||
			cap(src.Y) != len(src.Y) || cap(src.U) != len(src.U) {
			t.Fatalf("%dx%d: pooled frame has planes of %d/%d/%d samples (caps %d/%d)",
				w, h, len(src.Y), len(src.U), len(src.V), cap(src.Y), cap(src.U))
		}
		for i := range src.Y {
			src.Y[i] = byte(1 + i%100)
		}
		for i := range src.U {
			src.U[i] = byte(1 + i%90)
			src.V[i] = byte(100 + i%60)
		}
		results := map[string]*Frame{
			"Clone":               src.Clone(),
			"Crop whole":          src.Crop(0, 0, w, h),
			"Crop odd origin":     src.Crop(1, 1, w, h),
			"Crop degenerate":     src.Crop(w, h, w, h),
			"BilinearResize up":   src.BilinearResize(2*w+1, 2*h+1),
			"BilinearResize same": src.BilinearResize(w, h),
			"Downsample":          src.Downsample((w+1)/2, (h+1)/2),
			"Downsample by 3":     src.Downsample((w+2)/3, (h+2)/3),
		}
		for name, f := range results {
			for pi, plane := range [][]byte{f.Y, f.U, f.V} {
				for i, v := range plane {
					if v == 0 || v == poison {
						t.Errorf("%dx%d %s: plane %d sample %d of a %dx%d result reads %#x: never written",
							w, h, name, pi, i, f.W, f.H, v)
						break
					}
				}
			}
		}
		black := NewFrame(w, h)
		for i := range black.Y {
			if black.Y[i] != 16 {
				t.Fatalf("%dx%d: NewFrame luma sample %d is %d, want 16", w, h, i, black.Y[i])
			}
		}
		for i := range black.U {
			if black.U[i] != 128 || black.V[i] != 128 {
				t.Fatalf("%dx%d: NewFrame chroma sample %d is %d/%d, want 128", w, h, i, black.U[i], black.V[i])
			}
		}
	}
}
