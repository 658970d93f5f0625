#include "textflag.h"

// SSE2 kernels of the Q2(b) blur; see kernels_amd64.go for the Go
// wrappers that bounds-check every call, and kernels_generic.go for the
// twin each one equals. A register holds two outputs, one per lane.

// Four int32 samples in r to float64 at off(DI)…off+31(DI).
#define WIDEN4(r, off) \
	CVTPL2PD r, X4; \
	PSHUFD   $0x0E, r, r; \
	CVTPL2PD r, X5; \
	MOVUPD   X4, off(DI); \
	MOVUPD   X5, off+16(DI)

// func widenSSE2(dst *float64, src *byte, n int)
TEXT ·widenSSE2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	PXOR X7, X7

widen16:
	CMPQ      CX, $16
	JLT       widen1
	MOVOU     (SI), X0
	MOVO      X0, X1
	PUNPCKLBW X7, X0
	PUNPCKHBW X7, X1
	MOVO      X0, X2
	PUNPCKLWL X7, X0
	PUNPCKHWL X7, X2
	MOVO      X1, X3
	PUNPCKLWL X7, X1
	PUNPCKHWL X7, X3
	WIDEN4(X0, 0)
	WIDEN4(X2, 32)
	WIDEN4(X1, 64)
	WIDEN4(X3, 96)
	ADDQ      $16, SI
	ADDQ      $128, DI
	SUBQ      $16, CX
	JMP       widen16

widen1:
	TESTQ    CX, CX
	JZ       widendone
	MOVBLZX  (SI), AX
	CVTSL2SD AX, X0
	MOVSD    X0, (DI)
	INCQ     SI
	ADDQ     $8, DI
	DECQ     CX
	JMP      widen1

widendone:
	RET

// One tap of 16 outputs: X0…X7 += k·p over the 16 samples at (R10), k
// the tap at (R11), in both lanes of X8.
#define TAP16 \
	MOVSD    (R11), X8; \
	UNPCKLPD X8, X8; \
	MOVUPD   0(R10), X9; \
	MULPD    X8, X9; \
	ADDPD    X9, X0; \
	MOVUPD   16(R10), X10; \
	MULPD    X8, X10; \
	ADDPD    X10, X1; \
	MOVUPD   32(R10), X9; \
	MULPD    X8, X9; \
	ADDPD    X9, X2; \
	MOVUPD   48(R10), X10; \
	MULPD    X8, X10; \
	ADDPD    X10, X3; \
	MOVUPD   64(R10), X9; \
	MULPD    X8, X9; \
	ADDPD    X9, X4; \
	MOVUPD   80(R10), X10; \
	MULPD    X8, X10; \
	ADDPD    X10, X5; \
	MOVUPD   96(R10), X9; \
	MULPD    X8, X9; \
	ADDPD    X9, X6; \
	MOVUPD   112(R10), X10; \
	MULPD    X8, X10; \
	ADDPD    X10, X7

// Step R10 to the next tap's samples and R11 to its weight; count R12
// down.
#define NEXTTAP \
	ADDQ BX, R10; \
	ADDQ $8, R11; \
	DECQ R12

// The start of an output's tap loop: the taps of the outputs at (SI),
// from the first.
#define FIRSTTAP \
	MOVQ SI, R10; \
	MOVQ R8, R11; \
	MOVQ R9, R12

// blurByte in both lanes of r, left as int32 in its low two dwords: the
// sum clamped to [0, 255] (X11 = 0, X12 = 255), plus ½ (X13), truncated.
#define BYTES2(r) \
	MAXPD     X11, r; \
	MINPD     X12, r; \
	ADDPD     X13, r; \
	CVTTPD2PL r, r

// func blurTapsSSE2(dst *float64, dstb *byte, p *float64, n int, stride int, k *float64, d int)
//
// For x < n, the sum over i < d from zero of k[i]·p[x+i·stride], tap by
// tap, to dst[x] or, if dst is nil (R13), as its blurByte to dstb[x]; 16
// outputs at a time, then 2, then 1.
TEXT ·blurTapsSSE2(SB), NOSPLIT, $0-56
	MOVQ     dst+0(FP), DI
	MOVQ     DI, R13
	MOVQ     dstb+8(FP), DX
	MOVQ     p+16(FP), SI
	MOVQ     n+24(FP), CX
	MOVQ     stride+32(FP), BX
	SHLQ     $3, BX
	MOVQ     k+40(FP), R8
	MOVQ     d+48(FP), R9
	XORPS    X11, X11
	MOVSD    $255.0, X12
	UNPCKLPD X12, X12
	MOVSD    $0.5, X13
	UNPCKLPD X13, X13

taps16:
	CMPQ  CX, $16
	JLT   taps2
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	FIRSTTAP

taps16tap:
	TAP16
	NEXTTAP
	JNZ   taps16tap
	TESTQ R13, R13
	JZ    taps16bytes
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	MOVUPD X6, 96(DI)
	MOVUPD X7, 112(DI)
	JMP    taps16next

taps16bytes:
	BYTES2(X0)
	BYTES2(X1)
	BYTES2(X2)
	BYTES2(X3)
	BYTES2(X4)
	BYTES2(X5)
	BYTES2(X6)
	BYTES2(X7)
	PUNPCKLQDQ X1, X0
	PUNPCKLQDQ X3, X2
	PUNPCKLQDQ X5, X4
	PUNPCKLQDQ X7, X6
	PACKSSLW   X2, X0
	PACKSSLW   X6, X4
	PACKUSWB   X4, X0
	MOVOU      X0, (DX)

taps16next:
	ADDQ $128, DI
	ADDQ $16, DX
	ADDQ $128, SI
	SUBQ $16, CX
	JMP  taps16

taps2:
	CMPQ  CX, $2
	JLT   taps1
	XORPS X0, X0
	FIRSTTAP

taps2tap:
	MOVSD    (R11), X8
	UNPCKLPD X8, X8
	MOVUPD   (R10), X9
	MULPD    X8, X9
	ADDPD    X9, X0
	NEXTTAP
	JNZ      taps2tap
	TESTQ    R13, R13
	JZ       taps2bytes
	MOVUPD   X0, (DI)
	JMP      taps2next

taps2bytes:
	BYTES2(X0)
	PACKSSLW X0, X0
	PACKUSWB X0, X0
	MOVQ     X0, AX
	MOVW     AX, (DX)

taps2next:
	ADDQ $16, DI
	ADDQ $2, DX
	ADDQ $16, SI
	SUBQ $2, CX
	JMP  taps2

taps1:
	TESTQ CX, CX
	JZ    done
	XORPS X0, X0
	FIRSTTAP

taps1tap:
	MOVSD (R10), X9
	MULSD (R11), X9
	ADDSD X9, X0
	NEXTTAP
	JNZ   taps1tap
	TESTQ R13, R13
	JZ    taps1byte
	MOVSD X0, (DI)
	RET

taps1byte:
	MAXSD     X11, X0
	MINSD     X12, X0
	ADDSD     X13, X0
	CVTTSD2SL X0, AX
	MOVB      AX, (DX)

done:
	RET
