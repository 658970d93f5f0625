package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// sadRowBounds returns bounds that make a SAD of n rows abort at each of
// its rows in turn — the running sum through the row, and one under it —
// plus no bound at all, the whole sum, just under it, zero and −1.
func sadRowBounds(a []byte, as int, b []byte, bs, n int) []int {
	bounds := []int{math.MaxInt, 0, -1}
	sum := 0
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			d := int(a[y*as+x]) - int(b[y*bs+x])
			sum += max(d, -d)
		}
		bounds = append(bounds, sum, sum-1)
	}
	return bounds
}

// checkKernels holds each kernel to its generic twin on the blocks at a
// and b (row stride as and bs), both slices ending at the last byte a
// 16×16 block touches, and on the residual res; it reports the first
// divergence.
func checkKernels(t *testing.T, a []byte, as int, b []byte, bs int, res *[64]int32) {
	t.Helper()
	for _, n := range []int{8, 16} {
		kernel, generic := sad8, sad8Generic
		if n == 16 {
			kernel, generic = sad16, sad16Generic
		}
		for _, bound := range sadRowBounds(a, as, b, bs, n) {
			if got, want := kernel(a, as, b, bs, bound), generic(a, as, b, bs, bound); got != want {
				t.Fatalf("sad%d stride %d/%d bound %d: %d, want %d", n, as, bs, bound, got, want)
			}
		}
	}

	// The block kernels also read b at stride 0, as the intra blocks read
	// their row of 128s.
	for _, bs := range []int{bs, 0} {
		var got, want [64]int32
		for i := range got {
			got[i], want[i] = -0x55555556, 0x2AAAAAAA // every entry must be written
		}
		if gs, ws := residual8(a, as, b, bs, &got), residual8Generic(a, as, b, bs, &want); gs != ws || got != want {
			t.Fatalf("residual8 stride %d/%d: sum %d res %v, want sum %d res %v", as, bs, gs, got, ws, want)
		}

		// The writing kernels write into a copy of a, around the block
		// too: only the block's bytes may change.
		gd, wd := bytes.Clone(a), bytes.Clone(a)
		addClamp8(gd, as, b, bs, res)
		addClamp8Generic(wd, as, b, bs, res)
		if !bytes.Equal(gd, wd) {
			t.Fatalf("addClamp8 stride %d/%d residual %v: %v, want %v", as, bs, *res, gd, wd)
		}
		for _, n := range []int{8, 16} {
			kernel, generic := copy8, copy8Generic
			if n == 16 {
				kernel, generic = copy16, copy16Generic
			}
			gd, wd := bytes.Clone(a), bytes.Clone(a)
			kernel(gd, as, b, bs)
			generic(wd, as, b, bs)
			if !bytes.Equal(gd, wd) {
				t.Fatalf("copy%d stride %d/%d: %v, want %v", n, as, bs, gd, wd)
			}
		}
	}
}

// span is the bytes a 16×16 block at stride s touches.
func span(s int) int { return 15*s + 16 }

// TestKernelsMatchGeneric holds every SSE2 kernel to its generic twin
// (on other architectures the two are one function and this is a
// self-check). Blocks come from random and near-copy planes, at every
// stride from 8 to 80 and every start offset within a row, each slice
// ending exactly at the last byte the kernel touches; the SADs run with
// a bound that aborts them at each row, and once with every sample at
// its maximum difference (16·16·255). addClamp8 gets residuals far
// outside int16 (MinInt32, MaxInt32, whose sums wrap in int32 as the
// generic twin's do), around the int16 saturation points ±32768 ± 256,
// and −510…510 against every prediction value, covering both clamp
// edges of every sample.
func TestKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var res [64]int32
	for stride := 8; stride <= 80; stride++ {
		n := span(stride)
		plane := make([]byte, n+stride)
		rng.Read(plane)
		near := bytes.Clone(plane)
		for i := range near {
			near[i] ^= byte(rng.Intn(4))
		}
		for off := 0; off < stride; off++ {
			for i := range res {
				res[i] = int32(rng.Intn(1021)) - 510
			}
			checkKernels(t, plane[off:off+n], stride, near[off:off+n], stride, &res)
			checkKernels(t, near[off:off+n], stride, plane[stride-off:][:n], stride, &res)
		}
	}

	// Every sample at its maximum difference, both ways round.
	zero, full := make([]byte, span(16)), bytes.Repeat([]byte{255}, span(16))
	if got := sad16(zero, 16, full, 16, math.MaxInt); got != 16*16*255 {
		t.Fatalf("sad16 of 0 against 255: %d, want %d", got, 16*16*255)
	}
	checkKernels(t, zero, 16, full, 16, &res)
	checkKernels(t, full, 16, zero, 16, &res)

	// addClamp8: each residual meets every prediction value, at every
	// position of the block.
	pred := make([]byte, span(8))
	dst := make([]byte, span(8))
	var residuals []int32
	for r := int32(-510); r <= 510; r++ {
		residuals = append(residuals, r)
	}
	for _, c := range []int32{32767, 32768} {
		for d := int32(-256); d <= 256; d++ {
			residuals = append(residuals, c+d, -c-d)
		}
	}
	for d := int32(0); d < 300; d++ {
		residuals = append(residuals, math.MinInt32+d, math.MaxInt32-d)
	}
	for p := 0; p < 256; p += 64 {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				pred[y*8+x] = byte(p + y*8 + x)
			}
		}
		for k := range residuals {
			for i := range res {
				res[i] = residuals[(k+i)%len(residuals)]
			}
			rng.Read(dst)
			checkKernels(t, dst, 8, pred, 8, &res)
		}
	}
}

// FuzzPixelKernels is TestKernelsMatchGeneric's property on arbitrary
// bytes: data supplies both blocks' samples and the residual, stride and
// off place the blocks, bound cuts the SADs short. The seeds sit on the
// boundaries the test walks.
func FuzzPixelKernels(f *testing.F) {
	words := func(vs ...int32) []byte {
		out := make([]byte, 0, 4*len(vs))
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint32(out, uint32(v))
		}
		return out
	}
	f.Add(uint8(8), uint8(0), int64(math.MaxInt64), bytes.Repeat([]byte{255, 0}, 512))       // every difference 255
	f.Add(uint8(16), uint8(3), int64(255*16-1), bytes.Repeat([]byte{255, 0}, 512))           // abort after the first row
	f.Add(uint8(80), uint8(79), int64(0), []byte{1})                                         // widest stride, last offset
	f.Add(uint8(24), uint8(1), int64(-1), words(math.MaxInt32, math.MinInt32, 32767, 32768)) // int32 extremes, int16 edges
	f.Add(uint8(40), uint8(7), int64(100), words(-32769, -32768, 255, 256, -1, 0, 510, -255))
	f.Fuzz(func(t *testing.T, stride, off uint8, bound int64, data []byte) {
		if len(data) == 0 {
			return
		}
		s := 8 + int(stride)%73
		o := int(off) % s
		n := span(s)
		a, b := make([]byte, o+n), make([]byte, n)
		for i := range a {
			a[i] = data[i%len(data)]
		}
		for i := range b {
			b[i] = data[(i*7+3)%len(data)]
		}
		var res [64]int32
		for i := range res {
			var w [4]byte
			for j := range w {
				w[j] = data[(4*i+j)%len(data)]
			}
			res[i] = int32(binary.LittleEndian.Uint32(w[:]))
		}
		checkKernels(t, a[o:], s, b, s, &res)
		bd := int(max(min(bound, math.MaxInt32), math.MinInt32))
		if got, want := sad16(a[o:], s, b, s, bd), sad16Generic(a[o:], s, b, s, bd); got != want {
			t.Fatalf("sad16 stride %d bound %d: %d, want %d", s, bd, got, want)
		}
		if got, want := sad8(a[o:], s, b, s, bd), sad8Generic(a[o:], s, b, s, bd); got != want {
			t.Fatalf("sad8 stride %d bound %d: %d, want %d", s, bd, got, want)
		}
	})
}

// TestKernelsRefuseOutOfSliceBlocks: a block that does not fit its slice
// by one byte, or a negative stride, panics before any kernel runs.
func TestKernelsRefuseOutOfSliceBlocks(t *testing.T) {
	var res [64]int32
	buf := make([]byte, span(20))
	for name, call := range map[string]func(){
		"sad16 short":         func() { sad16(buf[:span(20)-1], 20, buf, 20, 0) },
		"sad16 negative":      func() { sad16(buf[15*20:], -20, buf, 20, 0) },
		"sad8 short":          func() { sad8(buf, 20, buf[:7*20+7], 20, 0) },
		"residual8 short":     func() { residual8(buf[:7*20+7], 20, buf, 20, &res) },
		"addClamp8 short":     func() { addClamp8(buf[:7*20+7], 20, buf, 20, &res) },
		"addClamp8 negative":  func() { addClamp8(buf[7*20:], -20, buf, 20, &res) },
		"copy8 short":         func() { copy8(buf[:7*20+7], 20, buf, 20) },
		"copy8 short source":  func() { copy8(buf, 20, buf[:7*20+7], 20) },
		"copy8 short row":     func() { copy8(buf, 20, buf[:7], 0) },
		"copy16 short":        func() { copy16(buf[:span(20)-1], 20, buf, 20) },
		"copy16 short source": func() { copy16(buf, 20, buf[:span(20)-1], 20) },
		"copy16 negative":     func() { copy16(buf[15*20:], -20, buf, 20) },
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

// fdctTestQPs are the QPs the transform twins are held to each other at:
// the extremes and the operating points, every step class among them.
var fdctTestQPs = []int{qpMin, 1, 5, 12, 18, 22, 24, 29, 44, qpMax}

// checkFDCT8 holds fdctQuant to fdctQuantGeneric on blk at qp: the same
// levels, every slot poisoned first, and the same nonzero mask.
func checkFDCT8(t *testing.T, blk *[64]int32, qp int) {
	t.Helper()
	var got, want [64]int16
	for i := range got {
		got[i], want[i] = math.MinInt16, math.MaxInt16
	}
	gm := fdctQuant(blk, tablesFor(qp), &got)
	wm := fdctQuantGeneric(blk, tablesFor(qp), &want)
	if got != want || gm != wm {
		t.Fatalf("fdctQuant of %v at qp %d: %v mask %#x, want %v mask %#x", *blk, qp, got, gm, want, wm)
	}
}

// TestFDCT8MatchesFast holds the SSE2 forward transform and quantizer to
// its Go twin, fdctQuantGeneric (on other architectures the two are one
// function and this is a self-check), over the residuals it is defined on,
// |res| ≤ 255, at fdctTestQPs: 20,000 random blocks, blocks of ±255 in
// every sign pattern of rows and a set of column patterns (the largest
// coefficients and intermediate values), an impulse at every position at
// several heights, and constant blocks.
func TestFDCT8MatchesFast(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var blk [64]int32
	for n := 0; n < 20000; n++ {
		for i := range blk {
			blk[i] = int32(rng.Intn(511)) - 255
		}
		checkFDCT8(t, &blk, fdctTestQPs[n%len(fdctTestQPs)])
	}
	check := func() {
		for _, qp := range fdctTestQPs {
			checkFDCT8(t, &blk, qp)
		}
	}
	for rows := 0; rows < 256; rows++ {
		for _, cols := range []int{0, 0x0F, 0x33, 0x55, 0xF0, 0xFF, 0x96, 0x69} {
			for i := range blk {
				blk[i] = 255
				if (rows>>uint(i>>3)^cols>>uint(i&7))&1 != 0 {
					blk[i] = -255
				}
			}
			check()
		}
	}
	heights := []int32{1, -1, 2, -3, 127, -128, 255, -255}
	for pos := range blk {
		for _, v := range heights {
			blk = [64]int32{}
			blk[pos] = v
			check()
		}
	}
	for _, v := range append(heights, 0, 7) {
		for i := range blk {
			blk[i] = v
		}
		check()
	}
}

// FuzzFDCT8 is TestFDCT8MatchesFast's property on arbitrary residuals at
// any encoder QP: data supplies the 64 samples as int16 words, repeated as
// needed and folded into [-255, 255].
func FuzzFDCT8(f *testing.F) {
	words := func(vs ...int16) []byte {
		out := make([]byte, 0, 2*len(vs))
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint16(out, uint16(v))
		}
		return out
	}
	f.Add(uint8(0), words(-255, 255))
	f.Add(uint8(18), words(255, -255, 0, 1))
	f.Add(uint8(51), words(0, 0, 0, 0, 0, 0, 0, 9))
	f.Fuzz(func(t *testing.T, qp uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		var blk [64]int32
		for i := range blk {
			w := int32(int16(binary.LittleEndian.Uint16([]byte{data[(2*i)%len(data)], data[(2*i+1)%len(data)]})))
			blk[i] = w % 256
		}
		checkFDCT8(t, &blk, int(qp)%(qpMax+1))
	})
}

// checkIDCT8 holds idct8SSE2's dispatch, idct8Rows, to idct8Generic on
// src: with every row and with only the rows in rowMask, which must hold
// src's nonzero rows; every output slot is poisoned first.
func checkIDCT8(t *testing.T, src *[64]int32, rowMask uint8) {
	t.Helper()
	var got, want, masked [64]int32
	for i := range got {
		got[i], want[i], masked[i] = math.MinInt32, math.MaxInt32, 77
	}
	idct8Rows(src, &got, rowMask)
	idct8Generic(src, &want, 0xFF)
	idct8Generic(src, &masked, rowMask)
	if got != want || masked != want {
		t.Fatalf("idct8 of %v (rows %#x): kernel %v, all rows %v, masked rows %v", *src, rowMask, got, want, masked)
	}
}

// rowsOf is the mask of src's nonzero coefficient rows.
func rowsOf(src *[64]int32) (m uint8) {
	for i, c := range src {
		if c != 0 {
			m |= 1 << uint(i>>3)
		}
	}
	return m
}

// TestIDCT8MatchesGeneric holds the SSE2 inverse transform to its Go twin
// (on other architectures the two are one function and this is a
// self-check): 20,000 dense blocks within the dequantized range
// ±coefLimit, sparse blocks of one to eight coefficients, a single
// coefficient at every position at the range's ends, and blocks of
// MinInt32/MaxInt32, whose sums wrap in int32 in both.
func TestIDCT8MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var src [64]int32
	for n := 0; n < 20000; n++ {
		for i := range src {
			src[i] = int32(rng.Intn(2*coefLimit+1)) - coefLimit
		}
		checkIDCT8(t, &src, 0xFF)
	}
	for n := 0; n < 20000; n++ {
		src = [64]int32{}
		for k := 1 + n%8; k > 0; k-- {
			src[rng.Intn(64)] = int32(rng.Intn(4001)) - 2000
		}
		if m := rowsOf(&src); m != 0 {
			checkIDCT8(t, &src, m)
		}
	}
	for pos := range src {
		for _, v := range []int32{1, -1, 128, -129, coefLimit, -coefLimit} {
			src = [64]int32{}
			src[pos] = v
			checkIDCT8(t, &src, rowsOf(&src))
		}
	}
	for n := 0; n < 100; n++ {
		for i := range src {
			src[i] = [3]int32{math.MinInt32, math.MaxInt32, int32(rng.Uint32())}[rng.Intn(3)]
		}
		checkIDCT8(t, &src, 0xFF)
	}
}

// FuzzIDCT8 is TestIDCT8MatchesGeneric's property on arbitrary blocks:
// data supplies the 64 int32 coefficients, repeated as needed.
func FuzzIDCT8(f *testing.F) {
	f.Add([]byte{0, 0, 16, 0})
	f.Add([]byte{0xFF, 0xFF, 0xEF, 0xFF, 1, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0x80, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var src [64]int32
		for i := range src {
			var w [4]byte
			for j := range w {
				w[j] = data[(4*i+j)%len(data)]
			}
			src[i] = int32(binary.LittleEndian.Uint32(w[:]))
		}
		checkIDCT8(t, &src, 0xFF)
	})
}
