package video

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzBoxPlane holds Q5's box filter to boxPlaneRef on arbitrary planes:
// boxPlane with the SSE2 row kernel (sumRows) and with its Go twin
// (sumRowsGeneric) both equal the reference for any sw×sh plane of up to
// 512×640 samples and any output size dw ≤ sw, dh ≤ sh. data fills the
// plane; sat fills it with 255, the uint16 lanes' worst case.
func FuzzBoxPlane(f *testing.F) {
	f.Add(uint16(192), uint16(108), uint16(96), uint16(54), false, []byte{0, 255, 17})
	f.Add(uint16(192), uint16(108), uint16(64), uint16(36), true, []byte{})
	f.Add(uint16(192), uint16(108), uint16(1), uint16(1), true, []byte{})      // a 1×1 output
	f.Add(uint16(96), uint16(54), uint16(48), uint16(27), false, []byte{9, 3}) // the bench shape's chroma
	f.Add(uint16(97), uint16(55), uint16(49), uint16(28), false, []byte{200})  // odd chroma sizes
	f.Add(uint16(33), uint16(257), uint16(5), uint16(1), true, []byte{})       // a box of 257 rows: one uint16 pass
	f.Add(uint16(33), uint16(258), uint16(5), uint16(1), true, []byte{})       // 258 rows: two passes
	f.Add(uint16(40), uint16(515), uint16(7), uint16(2), true, []byte{})       // rows of 257 and 258 boxes
	f.Add(uint16(31), uint16(20), uint16(31), uint16(7), false, []byte{1, 2})  // dw == sw
	f.Add(uint16(512), uint16(640), uint16(1), uint16(1), true, []byte{})      // a box past boxRecipLimit: the divide
	f.Fuzz(func(t *testing.T, sw, sh, dw, dh uint16, sat bool, data []byte) {
		w, h := 1+int(sw-1)%512, 1+int(sh-1)%640
		ow, oh := 1+int(dw-1)%w, 1+int(dh-1)%h
		src := make([]byte, w*h)
		for i := range src {
			src[i] = 255
			if !sat && len(data) > 0 {
				src[i] = data[i%len(data)] + byte(i/len(data))
			}
		}
		want := make([]byte, ow*oh)
		boxPlaneRef(want, ow, oh, src, w, h)
		for _, k := range []struct {
			name string
			sum  func(acc []uint16, src []byte, stride, rows int)
		}{{"sumRows", sumRows}, {"sumRowsGeneric", sumRowsGeneric}} {
			got := make([]byte, ow*oh)
			boxPlane(got, ow, oh, src, w, h, k.sum)
			if !bytes.Equal(got, want) {
				t.Fatalf("%dx%d -> %dx%d: boxPlane with %s diverges from boxPlaneRef", w, h, ow, oh, k.name)
			}
		}
	})
}

// TestSumRowsMatchesGeneric: the row kernel equals its twin at every
// width around its strips of 16 and 8 columns, over a stride wider than
// the row, with saturated samples and at the lanes' 257-row limit.
func TestSumRowsMatchesGeneric(t *testing.T) {
	for _, rows := range []int{1, 2, 3, 257} {
		for n := 0; n <= 40; n++ {
			stride := n + 3
			src := make([]byte, rows*stride)
			for i := range src {
				src[i] = byte(255 - i%7)
			}
			got, want := make([]uint16, n), make([]uint16, n)
			sumRows(got, src, stride, rows)
			sumRowsGeneric(want, src, stride, rows)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%d rows × %d columns: sum %d is %d, want %d", rows, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBoxRecipIsExact: for every box size boxPlane divides by a
// reciprocal (n < boxRecipLimit) and every numerator a rounded mean can
// have (sum + n/2 with sum ≤ 255·n, so v < 256·n), v·boxRecip(n) >> 40
// is v/n. The product's excess over v/n grows with v, so within each run
// of equal quotients the last v is the worst: checking v = q·n − 1 and
// q·n for every quotient q covers every v. Small n are checked at every
// sum as well.
func TestBoxRecipIsExact(t *testing.T) {
	for n := 1; n < boxRecipLimit; n++ {
		m := boxRecip(n)
		check := func(v int) {
			if got := int(uint64(v) * m >> boxRecipShift); got != v/n {
				t.Fatalf("n=%d v=%d: reciprocal gives %d, divide %d", n, v, got, v/n)
			}
		}
		for q := 0; q < 256; q++ {
			if q > 0 {
				check(q*n - 1)
			}
			check(q * n)
		}
		check(256*n - 1)
		if n <= 300 {
			for sum := 0; sum <= 255*n; sum++ {
				check(sum + n/2)
			}
		}
	}
}

// TestDownsampleAllocatesOnlyItsFrame: with boxPlane's scratch pooled, a
// Downsample costs its output frame (a struct and one backing array).
// sync.Pool drops a quarter of its Puts under -race, so the pin holds in
// other builds.
func TestDownsampleAllocatesOnlyItsFrame(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	src := NewFrame(192, 108)
	src.Downsample(64, 36) // warm the scratch pool
	if allocs := testing.AllocsPerRun(50, func() { src.Downsample(64, 36) }); allocs > 2 {
		t.Errorf("Downsample allocates %.1f times, want 2 (its frame)", allocs)
	}
}

// TestPutFramePoisonsUnderRace: in race builds a recycled frame reads
// the poison, whatever it held; elsewhere it keeps its samples.
func TestPutFramePoisonsUnderRace(t *testing.T) {
	f := GetFrame(3, 3)
	f.Fill(1, 2, 3)
	PutFrame(f) // f is read below only to see what recycling did to it
	if poisoned := f.Y[0] == 0xA5 && f.U[0] == 0x5A && f.V[0] == 0xA5; poisoned != raceBuild {
		t.Errorf("recycled frame reads %d/%d/%d, race build %v", f.Y[0], f.U[0], f.V[0], raceBuild)
	}
}

// BenchmarkDownsample is Q5's kernel at the benchmark's frame size, by
// the two ratios the query draws most.
func BenchmarkDownsample(b *testing.B) {
	src := NewFrame(192, 108)
	for i := range src.Y {
		src.Y[i] = byte(i * 7)
	}
	for _, to := range [][2]int{{96, 54}, {64, 36}} {
		b.Run(fmt.Sprintf("%dx%d", to[0], to[1]), func(b *testing.B) {
			for b.Loop() {
				src.Downsample(to[0], to[1])
			}
		})
	}
}
