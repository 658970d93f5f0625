#include "textflag.h"

// SSE2 pixel kernels and the forward transform and quantizer; see
// kernels_amd64.go for the Go wrappers that bounds-check every block
// before calling in, and kernels_generic.go (transform.go's
// fdctQuantGeneric for the transform) for the reference each one equals.
// Every row is unrolled: the SAD kernels test the bound after each row,
// as their twins do, so an aborted SAD returns the same partial sum.

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

// One copy row of 8 or 16 samples: (DI) to (SI) as one MOVQ or MOVOU
// load and store; step SI and DI one row.
#define COPYROW(MOV, X) \
	MOV  (DI), X; \
	MOV  X, (SI); \
	ADDQ AX, SI; \
	ADDQ BX, DI

// func copy8SSE2(dst *byte, ds int, src *byte, ss int)
TEXT ·copy8SSE2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), SI
	MOVQ ds+8(FP), AX
	MOVQ src+16(FP), DI
	MOVQ ss+24(FP), BX
	COPYROW(MOVQ, R8)
	COPYROW(MOVQ, R9)
	COPYROW(MOVQ, R8)
	COPYROW(MOVQ, R9)
	COPYROW(MOVQ, R8)
	COPYROW(MOVQ, R9)
	COPYROW(MOVQ, R8)
	COPYROW(MOVQ, R9)
	RET

// func copy16SSE2(dst *byte, ds int, src *byte, ss int)
TEXT ·copy16SSE2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), SI
	MOVQ ds+8(FP), AX
	MOVQ src+16(FP), DI
	MOVQ ss+24(FP), BX
	COPYROW(MOVOU, X0)
	COPYROW(MOVOU, X1)
	COPYROW(MOVOU, X0)
	COPYROW(MOVOU, X1)
	COPYROW(MOVOU, X0)
	COPYROW(MOVOU, X1)
	COPYROW(MOVOU, X0)
	COPYROW(MOVOU, X1)
	COPYROW(MOVOU, X0)
	COPYROW(MOVOU, X1)
	COPYROW(MOVOU, X0)
	COPYROW(MOVOU, X1)
	COPYROW(MOVOU, X0)
	COPYROW(MOVOU, X1)
	COPYROW(MOVOU, X0)
	COPYROW(MOVOU, X1)
	RET

// The forward transform and quantizer (fdctQuantSSE2) run fdct1d in
// eight int16 lanes: a
// register holds one row of the block, so a butterfly across the eight
// registers transforms the eight columns at once; after a transpose the
// same butterfly transforms the rows, and a second transpose puts the
// coefficient rows back in registers. Residuals of at most ±255 keep every
// intermediate value inside int16, so PACKSSLW's saturation never bites
// and wrapping int16 adds and PSRAW are fdct1d's int32 adds and >>. X8–X15
// are scratch.

// fdct1d on X0…X7, output k in Xk.
#define FDCT1D \
	MOVO   X0, X8; \
	PADDW  X7, X0; \
	PSUBW  X7, X8; \
	MOVO   X1, X9; \
	PADDW  X6, X1; \
	PSUBW  X6, X9; \
	MOVO   X2, X10; \
	PADDW  X5, X2; \
	PSUBW  X5, X10; \
	MOVO   X3, X11; \
	PADDW  X4, X3; \
	PSUBW  X4, X11; \
	MOVO   X0, X4; \
	PADDW  X3, X0; \
	PSUBW  X3, X4; \
	MOVO   X1, X5; \
	PADDW  X2, X1; \
	PSUBW  X2, X5; \
	MOVO   X0, X2; \
	PADDW  X1, X0; \
	PSUBW  X1, X2; \
	MOVO   X5, X3; \
	PSRAW  $1, X3; \
	PADDW  X4, X3; \
	PSRAW  $1, X4; \
	PSUBW  X5, X4; \
	MOVO   X8, X12; \
	PSRAW  $1, X12; \
	PADDW  X8, X12; \
	PADDW  X9, X12; \
	PADDW  X10, X12; \
	MOVO   X10, X13; \
	PSRAW  $1, X13; \
	PADDW  X10, X13; \
	MOVO   X8, X14; \
	PSUBW  X11, X14; \
	PSUBW  X13, X14; \
	MOVO   X9, X13; \
	PSRAW  $1, X13; \
	PADDW  X9, X13; \
	MOVO   X8, X15; \
	PADDW  X11, X15; \
	PSUBW  X13, X15; \
	MOVO   X11, X13; \
	PSRAW  $1, X13; \
	PADDW  X11, X13; \
	PADDW  X9, X13; \
	PSUBW  X10, X13; \
	MOVO   X13, X1; \
	PSRAW  $2, X1; \
	PADDW  X12, X1; \
	MOVO   X12, X7; \
	PSRAW  $2, X7; \
	PSUBW  X13, X7; \
	MOVO   X15, X6; \
	PSRAW  $2, X6; \
	PADDW  X14, X6; \
	MOVO   X14, X5; \
	PSRAW  $2, X5; \
	MOVO   X15, X8; \
	PSUBW  X5, X8; \
	MOVO   X3, X9; \
	MOVO   X6, X10; \
	MOVO   X4, X11; \
	MOVO   X2, X4; \
	MOVO   X9, X2; \
	MOVO   X10, X3; \
	MOVO   X8, X5; \
	MOVO   X11, X6

// Transpose the 8×8 int16 block in X0…X7 (row k in Xk) in place.
#define TRANSPOSE8 \
	MOVO       X0, X8; \
	PUNPCKLWL  X1, X0; \
	PUNPCKHWL  X1, X8; \
	MOVO       X2, X9; \
	PUNPCKLWL  X3, X2; \
	PUNPCKHWL  X3, X9; \
	MOVO       X4, X10; \
	PUNPCKLWL  X5, X4; \
	PUNPCKHWL  X5, X10; \
	MOVO       X6, X11; \
	PUNPCKLWL  X7, X6; \
	PUNPCKHWL  X7, X11; \
	MOVO       X0, X1; \
	PUNPCKLLQ  X2, X0; \
	PUNPCKHLQ  X2, X1; \
	MOVO       X8, X3; \
	PUNPCKLLQ  X9, X8; \
	PUNPCKHLQ  X9, X3; \
	MOVO       X4, X5; \
	PUNPCKLLQ  X6, X4; \
	PUNPCKHLQ  X6, X5; \
	MOVO       X10, X7; \
	PUNPCKLLQ  X11, X10; \
	PUNPCKHLQ  X11, X7; \
	MOVO       X0, X12; \
	PUNPCKLQDQ X4, X0; \
	PUNPCKHQDQ X4, X12; \
	MOVO       X1, X13; \
	PUNPCKLQDQ X5, X1; \
	PUNPCKHQDQ X5, X13; \
	MOVO       X8, X14; \
	PUNPCKLQDQ X10, X8; \
	PUNPCKHQDQ X10, X14; \
	MOVO       X3, X15; \
	PUNPCKLQDQ X7, X3; \
	PUNPCKHQDQ X7, X15; \
	MOVO       X1, X2; \
	MOVO       X12, X1; \
	MOVO       X3, X6; \
	MOVO       X13, X3; \
	MOVO       X8, X4; \
	MOVO       X14, X5; \
	MOVO       X15, X7

// Row r of src (eight int32 at r*32(SI)) as eight int16 in x.
#define LOADROW(r, x) \
	MOVOU r*32(SI), x; \
	MOVOU r*32+16(SI), X8; \
	PACKSSLW X8, x

// Quantize coefficient row r, int16 in x, into levels at r*16(DI): |Y|
// (the sign s = Y >> 15, |Y| = (Y ^ s) − s), times the row's multipliers
// at r*16(AX) as 32-bit products (PMULLW and PMULHW give their low and
// high halves, interleaved), plus the row's rounding at r*32(BX), shifted
// right by X14, packed back to int16 and given Y's sign again. |Y| <
// 2¹⁴ and Quant < 2¹⁵ keep every product below 2²⁹ and every level inside
// int16. X9–X13 are scratch.
#define QUANTROW(r, x) \
	MOVO      x, X9; \
	PSRAW     $15, X9; \
	PXOR      X9, x; \
	PSUBW     X9, x; \
	MOVOU     r*16(AX), X10; \
	MOVO      x, X11; \
	PMULLW    X10, x; \
	PMULHW    X10, X11; \
	MOVO      x, X12; \
	PUNPCKLWL X11, x; \
	PUNPCKHWL X11, X12; \
	MOVOU     r*32(BX), X13; \
	PADDL     X13, x; \
	MOVOU     r*32+16(BX), X13; \
	PADDL     X13, X12; \
	PSRAL     X14, x; \
	PSRAL     X14, X12; \
	PACKSSLW  X12, x; \
	PXOR      X9, x; \
	PSUBW     X9, x; \
	MOVOU     x, r*16(DI)

// The nonzero flags of the 16 levels in a and b, as bits 0…15 of R8
// (PCMPEQW against the zero in X15 flags the zero ones), shifted into
// place in DX.
#define NONZERO16(a, b, at) \
	MOVO     a, X9; \
	PCMPEQW  X15, X9; \
	MOVO     b, X10; \
	PCMPEQW  X15, X10; \
	PACKSSWB X10, X9; \
	PMOVMSKB X9, R8; \
	XORQ     $0xFFFF, R8; \
	SHLQ     $at, R8; \
	ORQ      R8, DX

// func fdctQuantSSE2(src *[64]int32, quant *[64]int16, round *[64]int32, shift uint64, lv *[64]int16) uint64
TEXT ·fdctQuantSSE2(SB), NOSPLIT, $0-48
	MOVQ src+0(FP), SI
	MOVQ quant+8(FP), AX
	MOVQ round+16(FP), BX
	MOVQ lv+32(FP), DI
	LOADROW(0, X0)
	LOADROW(1, X1)
	LOADROW(2, X2)
	LOADROW(3, X3)
	LOADROW(4, X4)
	LOADROW(5, X5)
	LOADROW(6, X6)
	LOADROW(7, X7)
	FDCT1D
	TRANSPOSE8
	FDCT1D
	TRANSPOSE8
	MOVQ shift+24(FP), X14
	QUANTROW(0, X0)
	QUANTROW(1, X1)
	QUANTROW(2, X2)
	QUANTROW(3, X3)
	QUANTROW(4, X4)
	QUANTROW(5, X5)
	QUANTROW(6, X6)
	QUANTROW(7, X7)
	PXOR X15, X15
	XORQ DX, DX
	NONZERO16(X0, X1, 0)
	NONZERO16(X2, X3, 16)
	NONZERO16(X4, X5, 32)
	NONZERO16(X6, X7, 48)
	MOVQ DX, ret+40(FP)
	RET

// The inverse transform (idct8SSE2) runs idct1d in four int32 lanes, with
// wrapping PADDL/PSUBL and PSRAL as Go's int32 +, − and >>. The row pass
// takes four rows at a time: two 4×4 transposes turn their coefficients
// into eight registers d0…d7 with a row per lane, the butterfly runs
// across them, and two transposes back store the four rows to dst. The
// column pass then transforms dst in place, four columns per register,
// and rounds, (x + 128) >> 8. X8–X15 are scratch.

// Transpose the 4×4 int32 block in a, b, c, d in place.
#define TRANSPOSE4(a, b, c, d) \
	MOVO       a, X8; \
	PUNPCKLLQ  b, a; \
	PUNPCKHLQ  b, X8; \
	MOVO       c, X9; \
	PUNPCKLLQ  d, c; \
	PUNPCKHLQ  d, X9; \
	MOVO       a, b; \
	PUNPCKLQDQ c, a; \
	PUNPCKHQDQ c, b; \
	MOVO       X8, c; \
	PUNPCKLQDQ X9, c; \
	MOVO       X8, d; \
	PUNPCKHQDQ X9, d

// idct1d on X0…X7, output n in Xn.
#define IDCT1D \
	MOVO  X0, X8; \
	PADDL X4, X8; \
	PSUBL X4, X0; \
	MOVO  X2, X9; \
	PSRAL $1, X9; \
	PSUBL X6, X9; \
	MOVO  X6, X10; \
	PSRAL $1, X10; \
	PADDL X2, X10; \
	MOVO  X8, X2; \
	PADDL X10, X2; \
	PSUBL X10, X8; \
	MOVO  X0, X4; \
	PADDL X9, X4; \
	PSUBL X9, X0; \
	MOVO  X7, X9; \
	PSRAL $1, X9; \
	PADDL X7, X9; \
	MOVO  X5, X10; \
	PSUBL X3, X10; \
	PSUBL X9, X10; \
	MOVO  X3, X9; \
	PSRAL $1, X9; \
	PADDL X3, X9; \
	MOVO  X1, X11; \
	PADDL X7, X11; \
	PSUBL X9, X11; \
	MOVO  X5, X9; \
	PSRAL $1, X9; \
	PADDL X5, X9; \
	MOVO  X7, X12; \
	PSUBL X1, X12; \
	PADDL X9, X12; \
	MOVO  X1, X9; \
	PSRAL $1, X9; \
	PADDL X1, X9; \
	PADDL X3, X9; \
	PADDL X5, X9; \
	MOVO  X9, X1; \
	PSRAL $2, X1; \
	PADDL X10, X1; \
	PSRAL $2, X10; \
	PSUBL X10, X9; \
	MOVO  X12, X3; \
	PSRAL $2, X3; \
	PADDL X11, X3; \
	PSRAL $2, X11; \
	PSUBL X12, X11; \
	MOVO  X2, X12; \
	PADDL X9, X12; \
	PSUBL X9, X2; \
	MOVO  X4, X13; \
	PADDL X11, X13; \
	PSUBL X11, X4; \
	MOVO  X0, X14; \
	PADDL X3, X14; \
	PSUBL X3, X0; \
	MOVO  X8, X15; \
	PADDL X1, X15; \
	PSUBL X1, X8; \
	MOVO  X0, X5; \
	MOVO  X4, X6; \
	MOVO  X2, X7; \
	MOVO  X8, X4; \
	MOVO  X12, X0; \
	MOVO  X13, X1; \
	MOVO  X14, X2; \
	MOVO  X15, X3

// func idct8SSE2(src *[64]int32, dst *[64]int32)
TEXT ·idct8SSE2(SB), NOSPLIT, $0-16
	MOVQ src+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ $2, CX

idctrows:
	MOVOU 0(SI), X0
	MOVOU 32(SI), X1
	MOVOU 64(SI), X2
	MOVOU 96(SI), X3
	TRANSPOSE4(X0, X1, X2, X3)
	MOVOU 16(SI), X4
	MOVOU 48(SI), X5
	MOVOU 80(SI), X6
	MOVOU 112(SI), X7
	TRANSPOSE4(X4, X5, X6, X7)
	IDCT1D
	TRANSPOSE4(X0, X1, X2, X3)
	MOVOU X0, 0(DI)
	MOVOU X1, 32(DI)
	MOVOU X2, 64(DI)
	MOVOU X3, 96(DI)
	TRANSPOSE4(X4, X5, X6, X7)
	MOVOU X4, 16(DI)
	MOVOU X5, 48(DI)
	MOVOU X6, 80(DI)
	MOVOU X7, 112(DI)
	ADDQ  $128, SI
	ADDQ  $128, DI
	DECQ  CX
	JNZ   idctrows

	MOVQ dst+8(FP), DI
	MOVQ $2, CX

idctcols:
	MOVOU 0(DI), X0
	MOVOU 32(DI), X1
	MOVOU 64(DI), X2
	MOVOU 96(DI), X3
	MOVOU 128(DI), X4
	MOVOU 160(DI), X5
	MOVOU 192(DI), X6
	MOVOU 224(DI), X7
	IDCT1D
	MOVQ   $128, AX
	MOVQ   AX, X8
	PSHUFD $0, X8, X8
	PADDL X8, X0
	PADDL X8, X1
	PADDL X8, X2
	PADDL X8, X3
	PADDL X8, X4
	PADDL X8, X5
	PADDL X8, X6
	PADDL X8, X7
	PSRAL $8, X0
	PSRAL $8, X1
	PSRAL $8, X2
	PSRAL $8, X3
	PSRAL $8, X4
	PSRAL $8, X5
	PSRAL $8, X6
	PSRAL $8, X7
	MOVOU X0, 0(DI)
	MOVOU X1, 32(DI)
	MOVOU X2, 64(DI)
	MOVOU X3, 96(DI)
	MOVOU X4, 128(DI)
	MOVOU X5, 160(DI)
	MOVOU X6, 192(DI)
	MOVOU X7, 224(DI)
	ADDQ  $16, DI
	DECQ  CX
	JNZ   idctcols
	RET
