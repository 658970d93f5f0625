package codec

// SSE2 twins of the kernels in kernels_generic.go and of fdct8Fast
// (kernels_amd64.s). SSE2 is part of the amd64 baseline, so there is
// nothing to detect. The pixel kernels are exact integer arithmetic and
// return, sample for sample, what their generic twins return
// (TestKernelsMatchGeneric, FuzzPixelKernels). The forward DCT is
// lane-parallel float64: each lane runs fdct8Fast's operations in
// fdct8Fast's order, so each coefficient is its twin's, bit for bit
// (TestFDCT8MatchesFast, FuzzFDCT8).
//
// The assembly reads (addClamp8 also writes) rows 0…n−1 of each block
// through a bare pointer. Each wrapper therefore first indexes, in Go, the
// last byte of each block — the last row's start, then its last sample —
// so a block that does not fit its slice panics here rather than reach
// memory outside it; a negative stride, whose rows would start before
// the slice, fails the first index.

//go:noescape
func sad16SSE2(a *byte, as int, b *byte, bs int, bound int) int

//go:noescape
func sad8SSE2(a *byte, as int, b *byte, bs int, bound int) int

//go:noescape
func residual8SSE2(cur *byte, cs int, ref *byte, rs int, res *[64]int32) int64

//go:noescape
func addClamp8SSE2(dst *byte, ds int, pred *byte, ps int, res *[64]int32)

//go:noescape
func fdct8SSE2(src *[64]int32, dst *[64]float64)

func sad16(a []byte, as int, b []byte, bs int, bound int) int {
	_, _ = a[15*as:][15], b[15*bs:][15]
	return sad16SSE2(&a[0], as, &b[0], bs, bound)
}

func sad8(a []byte, as int, b []byte, bs int, bound int) int {
	_, _ = a[7*as:][7], b[7*bs:][7]
	return sad8SSE2(&a[0], as, &b[0], bs, bound)
}

func residual8(cur []byte, cs int, ref []byte, rs int, res *[64]int32) int64 {
	_, _ = cur[7*cs:][7], ref[7*rs:][7]
	return residual8SSE2(&cur[0], cs, &ref[0], rs, res)
}

func addClamp8(dst []byte, ds int, pred []byte, ps int, res *[64]int32) {
	_, _ = dst[7*ds:][7], pred[7*ps:][7]
	addClamp8SSE2(&dst[0], ds, &pred[0], ps, res)
}

// fdct8Lanes is fdct8Fast, two rows or two columns per SSE2 register.
func fdct8Lanes(src *[64]int32, dst *[64]float64) {
	_, _ = src[63], dst[63]
	fdct8SSE2(src, dst)
}
