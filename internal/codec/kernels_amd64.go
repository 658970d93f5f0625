package codec

// SSE2 twins of the kernels in kernels_generic.go and of transform.go's
// fdctQuantGeneric and idct8Generic (kernels_amd64.s). SSE2 is part of
// the amd64 baseline, so there is nothing to detect. Every kernel is exact
// integer arithmetic and returns, sample for sample, what its generic
// twin returns (TestKernelsMatchGeneric, FuzzPixelKernels;
// TestFDCT8MatchesFast, FuzzFDCT8, TestIDCT8MatchesGeneric and FuzzIDCT8
// for the transforms).
//
// The pixel kernels read (addClamp8, copy8 and copy16 also write) rows
// 0…n−1 of each block through a bare pointer. Each wrapper therefore first indexes, in Go, the
// last byte of each block — the last row's start, then its last sample —
// so a block that does not fit its slice panics here rather than reach
// memory outside it; a negative stride, whose rows would start before
// the slice, fails the first index. The transforms take fixed-size arrays.

//go:noescape
func sad16SSE2(a *byte, as int, b *byte, bs int, bound int) int

//go:noescape
func sad8SSE2(a *byte, as int, b *byte, bs int, bound int) int

//go:noescape
func residual8SSE2(cur *byte, cs int, ref *byte, rs int, res *[64]int32) int64

//go:noescape
func addClamp8SSE2(dst *byte, ds int, pred *byte, ps int, res *[64]int32)

//go:noescape
func copy8SSE2(dst *byte, ds int, src *byte, ss int)

//go:noescape
func copy16SSE2(dst *byte, ds int, src *byte, ss int)

//go:noescape
func idct8SSE2(src *[64]int32, dst *[64]int32)

//go:noescape
func fdctQuantSSE2(src *[64]int32, quant *[64]int16, round *[64]int32, shift uint64, lv *[64]int16) uint64

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

func copy8(dst []byte, ds int, src []byte, ss int) {
	_, _ = dst[7*ds:][7], src[7*ss:][7]
	copy8SSE2(&dst[0], ds, &src[0], ss)
}

func copy16(dst []byte, ds int, src []byte, ss int) {
	_, _ = dst[15*ds:][15], src[15*ss:][15]
	copy16SSE2(&dst[0], ds, &src[0], ss)
}

func fdctQuant(src *[64]int32, t *qpTables, lv *[64]int16) uint64 {
	return fdctQuantSSE2(src, &t.Quant, &t.Round, uint64(t.Shift), lv)
}

func idct8Rows(src *[64]int32, dst *[64]int32, rowMask uint8) { idct8SSE2(src, dst) }
