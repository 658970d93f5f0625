//go:build !amd64

package queries

func widen(dst []float64, src []byte) { widenGeneric(dst, src) }

func blurTaps(dst, p []float64, stride int, k []float64) {
	blurTapsGeneric(dst, p, stride, k)
}

func blurTapsByte(dst []byte, p []float64, stride int, k []float64) {
	blurTapsByteGeneric(dst, p, stride, k)
}
