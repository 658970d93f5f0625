package queries

// The Q2(b) blur's loops in portable Go: the implementation on
// architectures without an assembly twin (kernels_other.go) and the
// reference the amd64 kernels are tested against (DESIGN.md §5.5). Every
// product is rounded by an explicit float64(…), which the Go spec says
// keeps the compiler from fusing it with the add that follows: a fused
// multiply-add rounds once where the reference rounds twice, so on an
// architecture that fuses (arm64) the sums, and the bytes, would differ.

// widenGeneric converts the samples of src to float64 into dst.
func widenGeneric(dst []float64, src []byte) {
	dst = dst[:len(src)]
	for x, v := range src {
		dst[x] = float64(v)
	}
}

// tapSum is the blur's sum for output x over p[x], p[x+stride], …,
// p[x+(len(k)−1)·stride]: from zero, k[i] times the i-th sample added in
// ascending tap order — the expression of the clamp-every-tap reference
// (blurPlane in fused_test.go), so every sum is bit-for-bit its.
func tapSum(p []float64, x, stride int, k []float64) float64 {
	var s float64
	for i, kv := range k {
		s += float64(kv * p[x+i*stride])
	}
	return s
}

// blurTapsGeneric writes tapSum of each output x to dst[x].
func blurTapsGeneric(dst, p []float64, stride int, k []float64) {
	for x := range dst {
		dst[x] = tapSum(p, x, stride, k)
	}
}

// blurTapsByteGeneric is blurTapsGeneric storing each sum's blurByte.
func blurTapsByteGeneric(dst []byte, p []float64, stride int, k []float64) {
	for x := range dst {
		dst[x] = blurByte(tapSum(p, x, stride, k))
	}
}
