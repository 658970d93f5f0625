package codec

import "encoding/binary"

// The codec's integer pixel kernels in portable Go: the implementation on
// architectures without an assembly twin (kernels_other.go) and the
// reference the amd64 kernels are tested against (DESIGN.md §5.9). Each
// takes a block's first sample and its row stride in two sample slices.

// SAD kernels work on 8 samples per uint64 load, split into two words of
// four 16-bit lanes (even and odd bytes) so that no per-sample difference
// can borrow from its neighbour.
const (
	laneLo  = 0x00FF00FF00FF00FF // low byte of every 16-bit lane
	laneBit = 0x0100010001000100 // bit 8 of every lane
	laneOne = 0x0001000100010001 // bit 0 of every lane
)

// absDiffLanes returns |a−b| per 16-bit lane; every lane of a and b
// holds one sample in [0, 255].
func absDiffLanes(a, b uint64) uint64 {
	d := (a | laneBit) - b          // 256 + a − b, in [1, 511]: bit 8 set iff a ≥ b
	neg := (^d >> 8) & laneOne      // 1 in the lanes where a < b
	m := neg<<8 - neg               // 0xFF in those lanes
	return ((d & laneLo) ^ m) + neg // a−b, or 255−(256+a−b)+1 = b−a
}

// sad8Lanes returns the absolute differences of the 8 samples packed in
// a and b, summed pairwise into four 16-bit lanes (each ≤ 510).
func sad8Lanes(a, b uint64) uint64 {
	return absDiffLanes(a&laneLo, b&laneLo) + absDiffLanes(a>>8&laneLo, b>>8&laneLo)
}

// sad16Generic is the sum of absolute differences between the 16×16
// blocks at a (row stride as) and b (row stride bs). It returns after the
// first row at which the running sum exceeds bound.
func sad16Generic(a []byte, as int, b []byte, bs int, bound int) int {
	sum := 0
	for y := 0; y < 16; y++ {
		ar, br := a[y*as:][:16], b[y*bs:][:16]
		lanes := sad8Lanes(binary.LittleEndian.Uint64(ar), binary.LittleEndian.Uint64(br)) +
			sad8Lanes(binary.LittleEndian.Uint64(ar[8:]), binary.LittleEndian.Uint64(br[8:]))
		// Lanes hold at most 4·255 each, so their sum fits the top lane.
		sum += int(lanes * laneOne >> 48)
		if sum > bound {
			return sum
		}
	}
	return sum
}

// sad8Generic is sad16Generic for 8×8 blocks.
func sad8Generic(a []byte, as int, b []byte, bs int, bound int) int {
	sum := 0
	for y := 0; y < 8; y++ {
		lanes := sad8Lanes(binary.LittleEndian.Uint64(a[y*as:]), binary.LittleEndian.Uint64(b[y*bs:]))
		sum += int(lanes * laneOne >> 48)
		if sum > bound {
			return sum
		}
	}
	return sum
}

// residual8Generic writes the 8×8 residual cur − ref into res and returns
// Σ|res|, the block's SAD.
func residual8Generic(cur []byte, cs int, ref []byte, rs int, res *[64]int32) int64 {
	var lanes uint64
	for y := 0; y < 8; y++ {
		row := cur[y*cs:][:8]
		rrow := ref[y*rs:][:8]
		out := res[y*8 : y*8+8 : y*8+8]
		for x := range out {
			out[x] = int32(row[x]) - int32(rrow[x])
		}
		lanes += sad8Lanes(binary.LittleEndian.Uint64(row), binary.LittleEndian.Uint64(rrow))
	}
	// Lanes hold at most 16·255 each, so their sum fits the top lane.
	return int64(lanes * laneOne >> 48)
}

// addClamp8Generic writes the 8×8 block clampSample(res + pred) to dst,
// the sum taken in int32: a residual within 255 of MaxInt32, which only
// a fuzzed stream carries, wraps, and the kernel wraps it alike.
func addClamp8Generic(dst []byte, ds int, pred []byte, ps int, res *[64]int32) {
	for y := 0; y < 8; y++ {
		row := dst[y*ds : y*ds+8]
		rrow := pred[y*ps : y*ps+8]
		for x := 0; x < 8; x++ {
			row[x] = clampSample(res[y*8+x] + int32(rrow[x]))
		}
	}
}

// copy8Generic copies the 8×8 block at src (row stride ss) to dst (row
// stride ds), a row per 8-byte word.
func copy8Generic(dst []byte, ds int, src []byte, ss int) {
	for y := 0; y < 8; y++ {
		binary.LittleEndian.PutUint64(dst[y*ds:], binary.LittleEndian.Uint64(src[y*ss:]))
	}
}

// copy16Generic is copy8Generic for 16×16 blocks, a row per two words.
func copy16Generic(dst []byte, ds int, src []byte, ss int) {
	for y := 0; y < 16; y++ {
		d, s := dst[y*ds:][:16], src[y*ss:][:16]
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(s))
		binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(s[8:]))
	}
}
