#include "textflag.h"

// SSE2 kernel of boxPlane's vertical pass; see kernels_amd64.go for the
// Go wrapper that bounds-checks the call, and kernels_generic.go for the
// twin it equals. Columns go in strips of 16 (then one of 8): the strip's
// sums stay in registers while the rows go by.

// func sumRowsSSE2(acc *uint16, src *byte, n, stride, rows int)
TEXT ·sumRowsSSE2(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ stride+24(FP), DX
	MOVQ rows+32(FP), BX
	PXOR X7, X7

strip16:
	CMPQ CX, $16
	JLT  strip8
	PXOR X0, X0
	PXOR X1, X1
	MOVQ SI, R8
	MOVQ BX, R9

row16:
	MOVOU     (R8), X2
	MOVO      X2, X3
	PUNPCKLBW X7, X2
	PUNPCKHBW X7, X3
	PADDW     X2, X0
	PADDW     X3, X1
	ADDQ      DX, R8
	DECQ      R9
	JNZ       row16
	MOVOU     X0, (DI)
	MOVOU     X1, 16(DI)
	ADDQ      $16, SI
	ADDQ      $32, DI
	SUBQ      $16, CX
	JMP       strip16

strip8:
	CMPQ CX, $8
	JLT  done
	PXOR X0, X0
	MOVQ SI, R8
	MOVQ BX, R9

row8:
	MOVQ      (R8), X2
	PUNPCKLBW X7, X2
	PADDW     X2, X0
	ADDQ      DX, R8
	DECQ      R9
	JNZ       row8
	MOVOU     X0, (DI)
	ADDQ      $8, SI
	ADDQ      $16, DI
	SUBQ      $8, CX
	JMP       strip8

done:
	RET
