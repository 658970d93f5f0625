package queries

// SSE2 twins of the blur loops in kernels_generic.go (kernels_amd64.s).
// SSE2 is part of the amd64 baseline, so there is nothing to detect. The
// tap kernels are lane-parallel: each lane of a register is one output x,
// and every lane runs its twin's scalar operations in its twin's order —
// MULPD then ADDPD, tap by tap from a zero sum — so every sum is the
// twin's, bit for bit (TestBlurKernelsMatchGeneric, FuzzBlurPlane).
//
// The assembly reads and writes through bare pointers. Each wrapper
// therefore first indexes, in Go, the last element the call touches — for
// the tap kernels the last tap's row, then its last sample — so a call
// that does not fit its slices panics here rather than reach memory
// outside them; a negative stride, whose taps would start before the
// slice, fails the first index. The tap kernels need at least one tap.

//go:noescape
func widenSSE2(dst *float64, src *byte, n int)

// blurTapsSSE2 is both tap kernels: it stores to dst, or to dstb as
// bytes when dst is nil.
//
//go:noescape
func blurTapsSSE2(dst *float64, dstb *byte, p *float64, n, stride int, k *float64, d int)

func widen(dst []float64, src []byte) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	widenSSE2(&dst[0], &src[0], len(src))
}

func blurTaps(dst, p []float64, stride int, k []float64) {
	if len(dst) == 0 {
		return
	}
	_ = p[(len(k)-1)*stride:][len(dst)-1]
	blurTapsSSE2(&dst[0], nil, &p[0], len(dst), stride, &k[0], len(k))
}

func blurTapsByte(dst []byte, p []float64, stride int, k []float64) {
	if len(dst) == 0 {
		return
	}
	_ = p[(len(k)-1)*stride:][len(dst)-1]
	blurTapsSSE2(nil, &dst[0], &p[0], len(dst), stride, &k[0], len(k))
}
