#include "textflag.h"

// AVX2 forms of tensor.go's matrix kernels. Every vector lane holds a
// different output element, and each element gets exactly the operations of
// the Go loop, in its order: a VMULPD for the product, then a VADDPD onto the
// element's own accumulator. No FMA, no horizontal sums, no reassociation, so
// the results are bit-identical to the scalar loops. The kernels use
// AX-DX, SI, DI and R8-R13 only, and end with VZEROUPPER so no later SSE code
// pays the AVX-SSE transition penalty.

// MAC2 adds columns off/8 and off/8+1 of the four rows at p (row stride R12,
// three strides R13) to acc, lane i holding row i: it interleaves the rows
// in registers so one VMULPD multiplies a column of four rows by the
// broadcast operand, column off/8 (times Y14) first, then off/8+1 (times Y15).
#define MAC2(p, off, acc) \
	VMOVUPD     off(p), X8; \
	VINSERTF128 $1, off(p)(R12*2), Y8, Y8; \
	VMOVUPD     off(p)(R12*1), X9; \
	VINSERTF128 $1, off(p)(R13*1), Y9, Y9; \
	VUNPCKLPD   Y9, Y8, Y10; \
	VUNPCKHPD   Y9, Y8, Y11; \
	VMULPD      Y14, Y10, Y10; \
	VADDPD      Y10, acc, acc; \
	VMULPD      Y15, Y11, Y11; \
	VADDPD      Y11, acc, acc

// DOT4 runs the column loop of one operand over four rows of two matrices:
// acc1 += a·v and acc2 += b·v, four columns per iteration. It expects the
// matrices' block starts in SI and DI, v in DX, the column count in CX and
// the strides in R12/R13.
#define DOT4(acc1, acc2, loop) \
loop: \
	VBROADCASTSD (DX), Y14; \
	VBROADCASTSD 8(DX), Y15; \
	MAC2(SI, 0, acc1); \
	MAC2(DI, 0, acc2); \
	VBROADCASTSD 16(DX), Y14; \
	VBROADCASTSD 24(DX), Y15; \
	MAC2(SI, 16, acc1); \
	MAC2(DI, 16, acc2); \
	ADDQ         $32, SI; \
	ADDQ         $32, DI; \
	ADDQ         $32, DX; \
	SUBQ         $4, CX; \
	JNZ          loop

// OPERANDS points SI and DI at row BX of two matrices with cols columns,
// DX at their operand vector and CX at the column count, and sets the row
// strides R12 (one row) and R13 (three rows).
#define OPERANDS(cols, m1, m2, vec) \
	MOVQ  cols, R12; \
	MOVQ  R12, CX; \
	SHLQ  $3, R12; \
	LEAQ  (R12)(R12*2), R13; \
	MOVQ  BX, AX; \
	IMULQ R12, AX; \
	MOVQ  m1, SI; \
	ADDQ  AX, SI; \
	MOVQ  m2, DI; \
	ADDQ  AX, DI; \
	MOVQ  vec, DX

// func matVec2AVX2(w1, w2, u1, u2, x, h, out1, out2 *float64, rows, n, k int)
//
// out1 = w1·x + u1·h and out2 = w2·x + u2·h, four rows per block. rows, n
// and k are positive multiples of 4. The x and h sums stay apart until the
// final add, as in the Go loop. Consecutive blocks share no register chain,
// so the CPU overlaps them; blocking eight rows measured no faster.
TEXT ·matVec2AVX2(SB), NOSPLIT, $0-88
	MOVQ rows+64(FP), R8
	XORQ BX, BX

block:
	OPERANDS(n+72(FP), w1+0(FP), w2+8(FP), x+32(FP))
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	DOT4(Y0, Y1, sloop)
	OPERANDS(k+80(FP), u1+16(FP), u2+24(FP), h+40(FP))
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	DOT4(Y2, Y3, tloop)
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	MOVQ    out1+48(FP), AX
	VMOVUPD Y0, (AX)(BX*8)
	MOVQ    out2+56(FP), AX
	VMOVUPD Y1, (AX)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, R8
	JLT     block
	VZEROUPPER
	RET

// func outerAddGradAVX2(grad, gv, x *float64, rows, n int)
//
// grad[r][:] += gv[r]·x[:] for every row whose gv[r] is not ±0. rows is
// positive, n a positive multiple of 4.
TEXT ·outerAddGradAVX2(SB), NOSPLIT, $0-40
	MOVQ grad+0(FP), DI
	MOVQ gv+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ rows+24(FP), BX
	MOVQ n+32(FP), R8
	SHLQ $3, R8

row:
	MOVQ (SI), AX
	SHLQ $1, AX // drops the sign bit: zero iff gv[r] is ±0
	JZ   nextrow
	VBROADCASTSD (SI), Y0
	XORQ CX, CX

col:
	VMULPD  (DX)(CX*1), Y0, Y1
	VADDPD  (DI)(CX*1), Y1, Y1
	VMOVUPD Y1, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, R8
	JNE     col

nextrow:
	ADDQ R8, DI
	ADDQ $8, SI
	DECQ BX
	JNZ  row
	VZEROUPPER
	RET

// func matTVecAddAVX2(w, gv, out *float64, rows, n int)
//
// out[c] += Σ_r w[r][c]·gv[r], rows in ascending order, skipping rows whose
// gv[r] is ±0. The accumulators start from out. Columns go 16 at a time (four
// independent accumulators), then 4 at a time. rows is positive, n a positive
// multiple of 4.
TEXT ·matTVecAddAVX2(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), R9
	MOVQ out+16(FP), DI
	MOVQ n+32(FP), R8
	SHLQ $3, R8
	XORQ CX, CX

wide:
	LEAQ    128(CX), AX
	CMPQ    AX, R8
	JGT     narrow
	VMOVUPD (DI)(CX*1), Y0
	VMOVUPD 32(DI)(CX*1), Y1
	VMOVUPD 64(DI)(CX*1), Y2
	VMOVUPD 96(DI)(CX*1), Y3
	LEAQ    (R9)(CX*1), SI
	MOVQ    gv+8(FP), DX
	MOVQ    rows+24(FP), BX

widerow:
	MOVQ (DX), AX
	SHLQ $1, AX
	JZ   widenext
	VBROADCASTSD (DX), Y4
	VMULPD       (SI), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(SI), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(SI), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(SI), Y4, Y8
	VADDPD       Y8, Y3, Y3

widenext:
	ADDQ    R8, SI
	ADDQ    $8, DX
	DECQ    BX
	JNZ     widerow
	VMOVUPD Y0, (DI)(CX*1)
	VMOVUPD Y1, 32(DI)(CX*1)
	VMOVUPD Y2, 64(DI)(CX*1)
	VMOVUPD Y3, 96(DI)(CX*1)
	ADDQ    $128, CX
	JMP     wide

narrow:
	CMPQ    CX, R8
	JEQ     done
	VMOVUPD (DI)(CX*1), Y0
	LEAQ    (R9)(CX*1), SI
	MOVQ    gv+8(FP), DX
	MOVQ    rows+24(FP), BX

narrowrow:
	MOVQ (DX), AX
	SHLQ $1, AX
	JZ   narrownext
	VBROADCASTSD (DX), Y4
	VMULPD       (SI), Y4, Y5
	VADDPD       Y5, Y0, Y0

narrownext:
	ADDQ    R8, SI
	ADDQ    $8, DX
	DECQ    BX
	JNZ     narrowrow
	VMOVUPD Y0, (DI)(CX*1)
	ADDQ    $32, CX
	JMP     narrow

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
//
// cpuid and xgetbv run before AVX is known to exist, so they touch no
// vector register and need no VZEROUPPER.
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
