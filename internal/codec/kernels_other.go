//go:build !amd64

package codec

func sad16(a []byte, as int, b []byte, bs int, bound int) int {
	return sad16Generic(a, as, b, bs, bound)
}

func sad8(a []byte, as int, b []byte, bs int, bound int) int {
	return sad8Generic(a, as, b, bs, bound)
}

func residual8(cur []byte, cs int, ref []byte, rs int, res *[64]int32) int64 {
	return residual8Generic(cur, cs, ref, rs, res)
}

func addClamp8(dst []byte, ds int, pred []byte, ps int, res *[64]int32) {
	addClamp8Generic(dst, ds, pred, ps, res)
}

func copy8(dst []byte, ds int, src []byte, ss int) { copy8Generic(dst, ds, src, ss) }

func copy16(dst []byte, ds int, src []byte, ss int) { copy16Generic(dst, ds, src, ss) }

func fdctQuant(src *[64]int32, t *qpTables, lv *[64]int16) uint64 {
	return fdctQuantGeneric(src, t, lv)
}

func idct8Rows(src *[64]int32, dst *[64]int32, rowMask uint8) { idct8Generic(src, dst, rowMask) }
