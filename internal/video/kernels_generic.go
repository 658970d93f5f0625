package video

// sumRowsGeneric is boxPlane's vertical pass in portable Go: acc[i] is
// the sum of src[r·stride+i] over the rows r < rows, in wrapping uint16
// arithmetic — exact for rows ≤ boxRowsMax. It is the implementation on
// architectures without an assembly twin (kernels_other.go) and the
// reference the amd64 kernel is tested against. rows ≥ 1.
func sumRowsGeneric(acc []uint16, src []byte, stride, rows int) {
	for i, v := range src[:len(acc)] {
		acc[i] = uint16(v)
	}
	for r := 1; r < rows; r++ {
		for i, v := range src[r*stride:][:len(acc)] {
			acc[i] += uint16(v)
		}
	}
}
