package video

// SSE2 twin of sumRowsGeneric (kernels_amd64.s). SSE2 is part of the
// amd64 baseline, so there is nothing to detect. A register holds eight
// columns' sums in uint16 lanes, and PADDW wraps as the Go uint16 adds
// do, so every sum is the twin's (TestSumRowsMatchesGeneric,
// FuzzBoxPlane).
//
// The assembly reads and writes through bare pointers, so the wrapper
// first indexes, in Go, the last sample of the last row and the last
// sum: a call that does not fit its slices panics here rather than reach
// memory outside them. The kernel covers whole groups of eight columns;
// the twin does the rest.

//go:noescape
func sumRowsSSE2(acc *uint16, src *byte, n, stride, rows int)

func sumRows(acc []uint16, src []byte, stride, rows int) {
	n := len(acc) &^ 7
	if n > 0 && rows > 0 {
		_ = src[(rows-1)*stride:][n-1]
		sumRowsSSE2(&acc[0], &src[0], n, stride, rows)
	}
	if n < len(acc) {
		sumRowsGeneric(acc[n:], src[n:], stride, rows)
	}
}
