#include "textflag.h"

// SSE2 pixel kernels and the forward DCT; see kernels_amd64.go for the
// Go wrappers that bounds-check every block before calling in, and
// kernels_generic.go (fdct8Fast for the DCT) for the reference each one
// equals. Every row is unrolled: the SAD kernels test the bound after
// each row, as their twins do, so an aborted SAD returns the same partial
// sum.

// One 16-sample SAD row: R8 += Σ|(SI) − (DI)|; leave for done once R8 >
// DX; step SI and DI one row.
#define SAD16ROW(done) \
	MOVOU  (SI), X0; \
	MOVOU  (DI), X1; \
	PSADBW X1, X0; \
	PSHUFD $0x0E, X0, X1; \
	PADDQ  X1, X0; \
	MOVQ   X0, R9; \
	ADDQ   R9, R8; \
	CMPQ   R8, DX; \
	JGT    done; \
	ADDQ   AX, SI; \
	ADDQ   BX, DI

// func sad16SSE2(a *byte, as int, b *byte, bs int, bound int) int
TEXT ·sad16SSE2(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ as+8(FP), AX
	MOVQ b+16(FP), DI
	MOVQ bs+24(FP), BX
	MOVQ bound+32(FP), DX
	XORQ R8, R8
	SAD16ROW(sad16done)
	SAD16ROW(sad16done)
	SAD16ROW(sad16done)
	SAD16ROW(sad16done)
	SAD16ROW(sad16done)
	SAD16ROW(sad16done)
	SAD16ROW(sad16done)
	SAD16ROW(sad16done)
	SAD16ROW(sad16done)
	SAD16ROW(sad16done)
	SAD16ROW(sad16done)
	SAD16ROW(sad16done)
	SAD16ROW(sad16done)
	SAD16ROW(sad16done)
	SAD16ROW(sad16done)
	SAD16ROW(sad16done)

sad16done:
	MOVQ R8, ret+40(FP)
	RET

// One 8-sample SAD row, as SAD16ROW.
#define SAD8ROW(done) \
	MOVQ   (SI), X0; \
	MOVQ   (DI), X1; \
	PSADBW X1, X0; \
	MOVQ   X0, R9; \
	ADDQ   R9, R8; \
	CMPQ   R8, DX; \
	JGT    done; \
	ADDQ   AX, SI; \
	ADDQ   BX, DI

// func sad8SSE2(a *byte, as int, b *byte, bs int, bound int) int
TEXT ·sad8SSE2(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ as+8(FP), AX
	MOVQ b+16(FP), DI
	MOVQ bs+24(FP), BX
	MOVQ bound+32(FP), DX
	XORQ R8, R8
	SAD8ROW(sad8done)
	SAD8ROW(sad8done)
	SAD8ROW(sad8done)
	SAD8ROW(sad8done)
	SAD8ROW(sad8done)
	SAD8ROW(sad8done)
	SAD8ROW(sad8done)
	SAD8ROW(sad8done)

sad8done:
	MOVQ R8, ret+40(FP)
	RET

// One residual row: X7 += Σ|(SI) − (DI)|; the eight differences, widened
// to int16 (X6 is zero), then to int32 by pairing each word with itself
// and shifting the pair right arithmetically, go to (DX) and 16(DX).
#define RESROW \
	MOVQ      (SI), X0; \
	MOVQ      (DI), X1; \
	MOVO      X0, X2; \
	PSADBW    X1, X2; \
	PADDQ     X2, X7; \
	PUNPCKLBW X6, X0; \
	PUNPCKLBW X6, X1; \
	PSUBW     X1, X0; \
	MOVO      X0, X1; \
	PUNPCKLWL X1, X1; \
	PUNPCKHWL X0, X0; \
	PSRAL     $16, X1; \
	PSRAL     $16, X0; \
	MOVOU     X1, (DX); \
	MOVOU     X0, 16(DX); \
	ADDQ      AX, SI; \
	ADDQ      BX, DI; \
	ADDQ      $32, DX

// func residual8SSE2(cur *byte, cs int, ref *byte, rs int, res *[64]int32) int64
TEXT ·residual8SSE2(SB), NOSPLIT, $0-48
	MOVQ cur+0(FP), SI
	MOVQ cs+8(FP), AX
	MOVQ ref+16(FP), DI
	MOVQ rs+24(FP), BX
	MOVQ res+32(FP), DX
	PXOR X6, X6
	PXOR X7, X7
	RESROW
	RESROW
	RESROW
	RESROW
	RESROW
	RESROW
	RESROW
	RESROW
	MOVQ X7, ret+40(FP)
	RET

// One store row: the eight prediction samples at (DI), widened to int32
// (X6 is zero), plus the residual at (DX) and 16(DX) in wrapping int32
// adds, as the generic twin adds; then saturated to int16 and from there
// to [0, 255]. Both saturations are monotone, so together they clamp
// every int32 sum to [0, 255], which is clampSample. The row goes to
// (SI).
#define STOREROW \
	MOVQ      (DI), X2; \
	PUNPCKLBW X6, X2; \
	MOVO      X2, X3; \
	PUNPCKLWL X6, X2; \
	PUNPCKHWL X6, X3; \
	MOVOU     (DX), X0; \
	MOVOU     16(DX), X1; \
	PADDL     X2, X0; \
	PADDL     X3, X1; \
	PACKSSLW  X1, X0; \
	PACKUSWB  X0, X0; \
	MOVQ      X0, (SI); \
	ADDQ      AX, SI; \
	ADDQ      BX, DI; \
	ADDQ      $32, DX

// func addClamp8SSE2(dst *byte, ds int, pred *byte, ps int, res *[64]int32)
TEXT ·addClamp8SSE2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), SI
	MOVQ ds+8(FP), AX
	MOVQ pred+16(FP), DI
	MOVQ ps+24(FP), BX
	MOVQ res+32(FP), DX
	PXOR X6, X6
	STOREROW
	STOREROW
	STOREROW
	STOREROW
	STOREROW
	STOREROW
	STOREROW
	STOREROW
	RET

// The forward DCT (fdct8SSE2) is lane-parallel: two rows, then two
// columns, per register, and every lane runs fdct8Fast's operations in
// fdct8Fast's order — exact int32 to float64 conversion, the butterfly's
// sums and differences, then each output from its first product, the
// next three products added in turn — so every coefficient is
// fdct8Fast's, bit for bit. R8 points at fdctLanes, the butterfly's
// constants by output, each in both lanes.

// The butterfly's mirrored sums and differences of x0…x7 in X0…X7, in
// place: s0…s3 in X0…X3, d0…d3 in X7, X6, X5, X4.
#define BUTTERFLY \
	MOVAPD X0, X8; \
	ADDPD  X7, X0; \
	SUBPD  X7, X8; \
	MOVAPD X8, X7; \
	MOVAPD X1, X8; \
	ADDPD  X6, X1; \
	SUBPD  X6, X8; \
	MOVAPD X8, X6; \
	MOVAPD X2, X8; \
	ADDPD  X5, X2; \
	SUBPD  X5, X8; \
	MOVAPD X8, X5; \
	MOVAPD X3, X8; \
	ADDPD  X4, X3; \
	SUBPD  X4, X8; \
	MOVAPD X8, X4

// Output r = v0·c0 + v1·c1 + v2·c2 + v3·c3, c the four constants at
// off(R8), added left to right; t is scratch.
#define DOT4(v0, v1, v2, v3, off, r, t) \
	MOVUPD off(R8), r; \
	MULPD  v0, r; \
	MOVUPD off+16(R8), t; \
	MULPD  v1, t; \
	ADDPD  t, r; \
	MOVUPD off+32(R8), t; \
	MULPD  v2, t; \
	ADDPD  t, r; \
	MOVUPD off+48(R8), t; \
	MULPD  v3, t; \
	ADDPD  t, r

// Outputs k (even, table offset ce) and k+1 (odd, co) of rows y and y+1,
// transposed to (y, k…k+1) and (y+1, k…k+1) and stored at off(DI) and
// off+64(DI).
#define ROWOUT(ce, co, off) \
	DOT4(X0, X1, X2, X3, ce, X8, X9); \
	DOT4(X7, X6, X5, X4, co, X10, X11); \
	MOVAPD   X8, X12; \
	UNPCKLPD X10, X8; \
	UNPCKHPD X10, X12; \
	MOVUPD   X8, off(DI); \
	MOVUPD   X12, off+64(DI)

// Samples n and n+1 of rows y (at off(SI)) and y+1 (off+32(SI)),
// converted, as the column vectors (y, n), (y+1, n) in a and
// (y, n+1), (y+1, n+1) in b.
#define ROWLOAD(off, a, b) \
	CVTPL2PD off(SI), a; \
	CVTPL2PD off+32(SI), X8; \
	MOVAPD   a, b; \
	UNPCKLPD X8, a; \
	UNPCKHPD X8, b

// func fdct8SSE2(src *[64]int32, dst *[64]float64)
//
// The row pass writes its 64 values to dst, which the column pass then
// transforms in place, two columns at a time.
TEXT ·fdct8SSE2(SB), NOSPLIT, $0-16
	MOVQ src+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ DI, DX
	LEAQ ·fdctLanes(SB), R8
	MOVQ $4, CX

fdctrows:
	ROWLOAD(0, X0, X1)
	ROWLOAD(8, X2, X3)
	ROWLOAD(16, X4, X5)
	ROWLOAD(24, X6, X7)
	BUTTERFLY
	ROWOUT(0, 64, 0)
	ROWOUT(128, 192, 16)
	ROWOUT(256, 320, 32)
	ROWOUT(384, 448, 48)
	ADDQ $64, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  fdctrows

	MOVQ DX, DI
	MOVQ $4, CX

fdctcols:
	MOVUPD 0(DI), X0
	MOVUPD 64(DI), X1
	MOVUPD 128(DI), X2
	MOVUPD 192(DI), X3
	MOVUPD 256(DI), X4
	MOVUPD 320(DI), X5
	MOVUPD 384(DI), X6
	MOVUPD 448(DI), X7
	BUTTERFLY
	DOT4(X0, X1, X2, X3, 0, X8, X9)
	MOVUPD X8, 0(DI)
	DOT4(X7, X6, X5, X4, 64, X10, X11)
	MOVUPD X10, 64(DI)
	DOT4(X0, X1, X2, X3, 128, X8, X9)
	MOVUPD X8, 128(DI)
	DOT4(X7, X6, X5, X4, 192, X10, X11)
	MOVUPD X10, 192(DI)
	DOT4(X0, X1, X2, X3, 256, X8, X9)
	MOVUPD X8, 256(DI)
	DOT4(X7, X6, X5, X4, 320, X10, X11)
	MOVUPD X10, 320(DI)
	DOT4(X0, X1, X2, X3, 384, X8, X9)
	MOVUPD X8, 384(DI)
	DOT4(X7, X6, X5, X4, 448, X10, X11)
	MOVUPD X10, 448(DI)
	ADDQ   $16, DI
	DECQ   CX
	JNZ    fdctcols
	RET
