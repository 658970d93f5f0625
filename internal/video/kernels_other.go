//go:build !amd64

package video

func sumRows(acc []uint16, src []byte, stride, rows int) {
	sumRowsGeneric(acc, src, stride, rows)
}
