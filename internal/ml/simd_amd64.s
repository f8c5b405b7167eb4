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

// The activation kernels below compute sigmoid and tanh four lanes at a time.
// Their exp repeats, lane by lane, the FMA path of Go's archExp
// ($GOROOT/src/math/exp_amd64.s): the same constants, the same operations
// in the same order, FMA exactly where archExp fuses and nowhere else. So a
// lane's result is bit-identical to math.Exp's wherever that path reaches
// its normal ldexp step, that is wherever k, the rounded x·log2(e), lies in
// [-1022, 1023]. A block with any other lane (NaN, ±Inf, overflow, a
// subnormal or zero result) is not stored: the kernel returns the count it
// finished and the Go loop computes the rest, so dst may alias src.

#define CONST4(sym, v) \
	DATA sym+0(SB)/8, v; \
	DATA sym+8(SB)/8, v; \
	DATA sym+16(SB)/8, v; \
	DATA sym+24(SB)/8, v; \
	GLOBL sym(SB), RODATA|NOPTR, $32

// archExp's constants, written as math writes them.
CONST4(log2e<>, $1.4426950408889634073599246810018920)
CONST4(ln2u<>, $0.69314718055966295651160180568695068359375)
CONST4(ln2l<>, $0.28235290563031577122588448175013436025525412068e-12)
CONST4(sixteenth<>, $0.0625)
CONST4(exp8<>, $2.4801587301587301587e-5)
CONST4(exp7<>, $1.9841269841269841270e-4)
CONST4(exp6<>, $1.3888888888888888889e-3)
CONST4(exp5<>, $8.3333333333333333333e-3)
CONST4(exp4<>, $4.1666666666666666667e-2)
CONST4(exp3<>, $1.6666666666666666667e-1)
CONST4(half<>, $0.5)
CONST4(one<>, $1.0)
CONST4(two<>, $2.0)

// math.tanh's constants.
CONST4(tanhp0<>, $-9.64399179425052238628e-1)
CONST4(tanhp1<>, $-9.92877231001918586564e1)
CONST4(tanhp2<>, $-1.61468768441708447952e3)
CONST4(tanhq0<>, $1.12811678491632931402e2)
CONST4(tanhq1<>, $2.23548839060100448583e3)
CONST4(tanhq2<>, $4.84406305325125486048e3)
CONST4(halfmaxlog<>, $44.014845965556527147994) // 0.5 * MAXLOG
CONST4(fiveeighths<>, $0.625)
CONST4(zero<>, $0.0)
CONST4(signbit<>, $0x8000000000000000)
CONST4(absmask<>, $0x7fffffffffffffff)

// k+1023 bias and the limits of the normal range of k+1023, as int32 lanes.
DATA expbias<>+0(SB)/4, $1023
DATA expbias<>+4(SB)/4, $1023
DATA expbias<>+8(SB)/4, $1023
DATA expbias<>+12(SB)/4, $1023
GLOBL expbias<>(SB), RODATA|NOPTR, $16
DATA explimit<>+0(SB)/4, $2046
DATA explimit<>+4(SB)/4, $2046
DATA explimit<>+8(SB)/4, $2046
DATA explimit<>+12(SB)/4, $2046
GLOBL explimit<>(SB), RODATA|NOPTR, $16

// EXP4 replaces each lane of x with archExp's FMA-path exp of it, and
// jumps to bail, before anything is stored, if any lane's k+1023 falls
// outside [1, 2046]. t is scratch; u, kb and kc are the X halves of three
// other scratch registers.
#define EXP4(x, t, u, kb, kc, bail) \
	VMULPD       log2e<>(SB), x, t; \
	VCVTPD2DQY   t, kb; \
	VCVTDQ2PD    kb, t; \
	VFNMADD231PD ln2u<>(SB), t, x; \
	VFNMADD231PD ln2l<>(SB), t, x; \
	VMULPD       sixteenth<>(SB), x, x; \
	VMOVUPD      exp8<>(SB), t; \
	VFMADD213PD  exp7<>(SB), x, t; \
	VFMADD213PD  exp6<>(SB), x, t; \
	VFMADD213PD  exp5<>(SB), x, t; \
	VFMADD213PD  exp4<>(SB), x, t; \
	VFMADD213PD  exp3<>(SB), x, t; \
	VFMADD213PD  half<>(SB), x, t; \
	VFMADD213PD  one<>(SB), x, t; \
	VMULPD       t, x, x; \
	VADDPD       two<>(SB), x, t; \
	VMULPD       t, x, x; \
	VADDPD       two<>(SB), x, t; \
	VMULPD       t, x, x; \
	VADDPD       two<>(SB), x, t; \
	VMULPD       t, x, x; \
	VADDPD       two<>(SB), x, t; \
	VFMADD213PD  one<>(SB), t, x; \
	VPADDD       expbias<>(SB), kb, kb; \
	VPCMPGTD     zero<>(SB), kb, kc; \
	VPCMPGTD     explimit<>(SB), kb, u; \
	VPANDN       kc, u, kc; \
	VMOVMSKPS    kc, BX; \
	CMPQ         BX, $15; \
	JNE          bail; \
	VPMOVSXDQ    kb, t; \
	VPSLLQ       $52, t, t; \
	VMULPD       t, x, x

// func sigmoidAddAVX2(dst, src, bias *float64, n int) int
//
// dst[i] = 1/(1+exp(-(src[i]+bias[i]))) for whole blocks of four, as
// sigmoidAdd's Go loop computes it. Returns the count stored.
TEXT ·sigmoidAddAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ bias+16(FP), DX
	MOVQ n+24(FP), CX
	ANDQ $~3, CX
	XORQ AX, AX
	VMOVUPD one<>(SB), Y15

sblock:
	CMPQ    AX, CX
	JGE     sdone
	VMOVUPD (SI)(AX*8), Y0
	VADDPD  (DX)(AX*8), Y0, Y0
	VXORPD  signbit<>(SB), Y0, Y0
	EXP4(Y0, Y1, X2, X3, X4, sdone)
	VADDPD  Y15, Y0, Y0
	VDIVPD  Y0, Y15, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     sblock

sdone:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func tanhAddAVX2(dst, src, bias *float64, n int) int
//
// dst[i] = tanh(src[i]+bias[i]) for whole blocks of four, or tanh(src[i])
// when bias is nil, as tanhAdd's Go loop computes it. Every lane computes
// all three branches of math.tanh, which are then blended in its order: the
// polynomial, replaced where |x| >= 0.625 by 1-2/(exp(2|x|)+1) with x's
// sign, that where |x| > 0.5·MAXLOG by ±1, and that where x is ±0 by x. The
// ±1 lanes take exp(0), so only NaN makes a block bail. The polynomial is
// unfused, in math.tanh's order. Returns the count stored.
TEXT ·tanhAddAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ bias+16(FP), DX
	MOVQ n+24(FP), CX
	ANDQ $~3, CX
	XORQ AX, AX
	VMOVUPD one<>(SB), Y15
	VMOVUPD two<>(SB), Y14
	VMOVUPD signbit<>(SB), Y13

tblock:
	CMPQ    AX, CX
	JGE     tdone
	VMOVUPD (SI)(AX*8), Y0
	TESTQ   DX, DX
	JZ      tnobias
	VADDPD  (DX)(AX*8), Y0, Y0

tnobias:
	// The middle branch, sign of x included.
	VANDPD  absmask<>(SB), Y0, Y1
	VCMPPD  $0x1e, halfmaxlog<>(SB), Y1, Y2
	VADDPD  Y1, Y1, Y3
	VANDNPD Y3, Y2, Y3
	EXP4(Y3, Y4, X5, X6, X7, tdone)
	VADDPD  Y15, Y3, Y3
	VDIVPD  Y3, Y14, Y3
	VSUBPD  Y3, Y15, Y3
	VANDPD  Y13, Y0, Y6
	VORPD   Y6, Y3, Y3

	// The polynomial: x + x*s*((P0*s+P1)*s+P2)/(((s+Q0)*s+Q1)*s+Q2).
	VMULPD Y0, Y0, Y7
	VMULPD tanhp0<>(SB), Y7, Y8
	VADDPD tanhp1<>(SB), Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD tanhp2<>(SB), Y8, Y8
	VADDPD tanhq0<>(SB), Y7, Y9
	VMULPD Y7, Y9, Y9
	VADDPD tanhq1<>(SB), Y9, Y9
	VMULPD Y7, Y9, Y9
	VADDPD tanhq2<>(SB), Y9, Y9
	VMULPD Y7, Y0, Y10
	VMULPD Y8, Y10, Y10
	VDIVPD Y9, Y10, Y10
	VADDPD Y10, Y0, Y10

	// The blends, in math.tanh's order.
	VCMPPD    $0x1d, fiveeighths<>(SB), Y1, Y4
	VBLENDVPD Y4, Y3, Y10, Y10
	VORPD     Y15, Y6, Y3
	VBLENDVPD Y2, Y3, Y10, Y10
	VCMPPD    $0x00, zero<>(SB), Y0, Y4
	VBLENDVPD Y4, Y0, Y10, Y10
	VMOVUPD   Y10, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       tblock

tdone:
	MOVQ AX, ret+32(FP)
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
