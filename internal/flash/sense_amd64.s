// SSE2 sense kernel for the hot flash read path: read disturb and
// retention drift both active. Two cells per iteration; every packed
// operation applies the scalar evaluation sequence per lane (see
// Block.sense), so results are bit-identical to the Reference.
//
// Register use:
//   SI=vq  R8=el  R9=rd  R10=ret  R13=n  DI=out
//   DX=cell index  BX=word accumulator  AX=lane mask  CX=shift count
//   X9=reads  X10=wf  X11=m0  X12=span  X13=lo  X15=hi  X14=+0
//
// The MAXPD-against-zero idiom implements the Reference's `term > 0`
// guards branchlessly: a positive delta passes through, and a
// negative, -0 or +0 delta becomes +0 (MAXPD returns the second
// operand on equality), which adds/subtracts as a no-op exactly like
// the skipped branch.

#include "textflag.h"

// SENSE leaves the sensed voltages of cells DX and DX+1 in X5, in
// the scalar order: d = ((rd*reads)*wf)*el clamped to +0; v = vq + d;
// level = (v-m0)/span; v -= clamp((ret*level)*span);
// ve = float64(float32(v)).
#define SENSE \
	MOVUPD   (R9)(DX*8), X0; \
	MULPD    X9, X0; \
	MULPD    X10, X0; \
	MOVUPD   (R8)(DX*8), X1; \
	MULPD    X1, X0; \
	MAXPD    X14, X0; \
	MOVUPD   (SI)(DX*8), X2; \
	ADDPD    X0, X2; \
	MOVAPD   X2, X3; \
	SUBPD    X11, X3; \
	DIVPD    X12, X3; \
	MOVUPD   (R10)(DX*8), X4; \
	MULPD    X3, X4; \
	MULPD    X12, X4; \
	MAXPD    X14, X4; \
	SUBPD    X4, X2; \
	CVTPD2PS X2, X5; \
	CVTPS2PD X5, X5

// PACK ors the lane mask AX into the word accumulator at cell DX,
// stores the word after its last pair of cells, and steps DX to the
// next pair, jumping back to loop until DX reaches n.
#define PACK(loop, next) \
	MOVQ DX, CX; \
	ANDQ $63, CX; \
	SHLQ CX, AX; \
	ORQ  AX, BX; \
	CMPQ CX, $62; \
	JNE  next; \
	MOVQ DX, R11; \
	SHRQ $6, R11; \
	MOVQ BX, (DI)(R11*8); \
	XORQ BX, BX; \
next: \
	ADDQ $2, DX; \
	CMPQ DX, R13; \
	JLT  loop

// func senseSweep(vq, el, rd, ret *float64, n int, reads, wf, m0, span, lo, hi float64, out *uint64)
TEXT ·senseSweep(SB), NOSPLIT, $0-96
	MOVQ vq+0(FP), SI
	MOVQ el+8(FP), R8
	MOVQ rd+16(FP), R9
	MOVQ ret+24(FP), R10
	MOVQ n+32(FP), R13
	MOVQ out+88(FP), DI

	MOVSD    reads+40(FP), X9
	UNPCKLPD X9, X9
	MOVSD    wf+48(FP), X10
	UNPCKLPD X10, X10
	MOVSD    m0+56(FP), X11
	UNPCKLPD X11, X11
	MOVSD    span+64(FP), X12
	UNPCKLPD X12, X12
	MOVSD    lo+72(FP), X13
	UNPCKLPD X13, X13
	MOVSD    hi+80(FP), X15
	UNPCKLPD X15, X15
	XORPS    X14, X14

	XORQ BX, BX // word accumulator
	XORQ DX, DX // cell index

	// hi == +Inf (an LSB page or the internal read) has no upper
	// partition: take the loop without the upper compare.
	MOVQ hi+80(FP), AX
	MOVQ $0x7ff0000000000000, R11
	CMPQ AX, R11
	JEQ  lowloop

bandloop:
	SENSE
	// bit = sign(ve-lo) | !sign(ve-hi)
	MOVAPD   X5, X6
	SUBPD    X13, X6
	MOVMSKPD X6, AX
	SUBPD    X15, X5
	MOVMSKPD X5, R11
	XORQ     $3, R11
	ORQ      R11, AX
	PACK(bandloop, bandnext)
	RET

lowloop:
	SENSE
	// bit = sign(ve-lo)
	SUBPD    X13, X5
	MOVMSKPD X5, AX
	PACK(lowloop, lownext)
	RET
