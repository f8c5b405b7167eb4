#include "textflag.h"

// AVX2 forms of tensor.go's matrix kernels. Every vector lane holds a
// different output element, and each element gets exactly the operations of
// the Go loop, in its order: a VMULPD for the product, then a VADDPD onto the
// element's own accumulator. No FMA, no horizontal sums, no reassociation, so
// the results are bit-identical to the scalar loops. The kernels use
// AX-DX, SI, DI and R8-R13 only, and end with VZEROUPPER so no later SSE code
// pays the AVX-SSE transition penalty. tensor.go's kernel comment states the
// licences they take.

// MAC4 multiplies one column of two blocks of each of two block-packed
// matrices by the broadcast operand b and adds the products to a0..a3: the
// column at off(BX) and off(BX)(stride*1), two blocks of one matrix, to a0
// and a1, and the one at off(R11) and off(R11)(stride*1) to a2 and a3. A
// block's column holds four rows' values, lane i holding row i.
#define MAC4(off, b, stride, a0, a1, a2, a3) \
	VMULPD off(BX), b, Y9; \
	VADDPD Y9, a0, a0; \
	VMULPD off(BX)(stride*1), b, Y10; \
	VADDPD Y10, a1, a1; \
	VMULPD off(R11), b, Y11; \
	VADDPD Y11, a2, a2; \
	VMULPD off(R11)(stride*1), b, Y12; \
	VADDPD Y12, a3, a3

// DOTB runs the column loop of one operand vector over two blocks of two
// block-packed matrices, four columns per iteration, in ascending column
// order. It expects the first block of each matrix in BX and R11, the block
// size in bytes in stride, the vector in DX and the column count, a positive
// multiple of 4, in CX.
#define DOTB(stride, a0, a1, a2, a3, loop) \
loop: \
	VBROADCASTSD (DX), Y8; \
	MAC4(0, Y8, stride, a0, a1, a2, a3); \
	VBROADCASTSD 8(DX), Y13; \
	MAC4(32, Y13, stride, a0, a1, a2, a3); \
	VBROADCASTSD 16(DX), Y8; \
	MAC4(64, Y8, stride, a0, a1, a2, a3); \
	VBROADCASTSD 24(DX), Y13; \
	MAC4(96, Y13, stride, a0, a1, a2, a3); \
	ADDQ         $128, BX; \
	ADDQ         $128, R11; \
	ADDQ         $32, DX; \
	SUBQ         $4, CX; \
	JNZ          loop

// func matVec2AVX2(w1, w2, u1, u2, x, h, out1, out2 *float64, rows, n, k int)
//
// out1 = w1·x + u1·h and out2 = w2·x + u2·h over block-packed matrices
// (Tensor.blk), eight rows of each per iteration, which gives four
// independent accumulator chains in each loop. rows is a positive multiple
// of 8, n a positive multiple of 4, k a multiple of 4; k = 0 skips the h
// loop, and u1, u2 and h are then not read. Each output's x sum and h sum
// start from +0 and stay apart until the final add, as in the Go loop.
TEXT ·matVec2AVX2(SB), NOSPLIT, $0-88
	MOVQ w1+0(FP), SI
	MOVQ w2+8(FP), DI
	MOVQ u1+16(FP), R9
	MOVQ u2+24(FP), R10
	MOVQ n+72(FP), R12
	SHLQ $5, R12          // one block of w: 4 rows of n values
	MOVQ k+80(FP), R13
	SHLQ $5, R13          // one block of u
	MOVQ rows+64(FP), R8
	SHLQ $3, R8
	XORQ AX, AX           // byte offset of the iteration's first output

block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, BX
	MOVQ   DI, R11
	MOVQ   x+32(FP), DX
	MOVQ   n+72(FP), CX
	DOTB(R12, Y0, Y1, Y2, Y3, xloop)
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   k+80(FP), CX
	TESTQ  CX, CX
	JZ     sums
	MOVQ   R9, BX
	MOVQ   R10, R11
	MOVQ   h+40(FP), DX
	DOTB(R13, Y4, Y5, Y6, Y7, hloop)

sums:
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y3, Y3
	MOVQ    out1+48(FP), BX
	VMOVUPD Y0, (BX)(AX*1)
	VMOVUPD Y1, 32(BX)(AX*1)
	MOVQ    out2+56(FP), BX
	VMOVUPD Y2, (BX)(AX*1)
	VMOVUPD Y3, 32(BX)(AX*1)
	LEAQ    (SI)(R12*2), SI
	LEAQ    (DI)(R12*2), DI
	LEAQ    (R9)(R13*2), R9
	LEAQ    (R10)(R13*2), R10
	ADDQ    $64, AX
	CMPQ    AX, R8
	JLT     block
	VZEROUPPER
	RET

// func outerAddGradSeqAVX2(grad, gv, x *float64, rows, n, steps int)
//
// grad[r][:] += gv[k][r]·x[k][:] for k = steps-1 down to 0, skipping the
// (r, k) whose gv[k][r] is ±0. Each run of 16 (then 4) columns of a gradient
// row is loaded once, carried in registers through every step, and stored
// once. gv is steps×rows and x steps×n, row k holding step k. rows and steps
// are positive, n a positive multiple of 4.
TEXT ·outerAddGradSeqAVX2(SB), NOSPLIT, $0-48
	MOVQ grad+0(FP), DI
	MOVQ gv+8(FP), SI
	MOVQ rows+24(FP), BX
	MOVQ BX, R9
	SHLQ $3, R9           // one step's g row, in bytes
	MOVQ n+32(FP), R8
	SHLQ $3, R8           // one gradient row, and one step's x row

	// R10: &gv[steps-1][r], R13: &x[steps-1][0].
	MOVQ  steps+40(FP), R10
	DECQ  R10
	MOVQ  R10, R13
	IMULQ R9, R10
	ADDQ  SI, R10
	IMULQ R8, R13
	ADDQ  x+16(FP), R13

srow:
	XORQ CX, CX

swide:
	LEAQ    128(CX), AX
	CMPQ    AX, R8
	JGT     snarrow
	VMOVUPD (DI)(CX*1), Y0
	VMOVUPD 32(DI)(CX*1), Y1
	VMOVUPD 64(DI)(CX*1), Y2
	VMOVUPD 96(DI)(CX*1), Y3

	// DX: &gv[steps-1][r], R11: &x[steps-1][c], R12: the step count.
	MOVQ steps+40(FP), R12
	MOVQ R10, DX
	LEAQ (R13)(CX*1), R11

swidestep:
	MOVQ (DX), AX
	SHLQ $1, AX // drops the sign bit: zero iff gv[k][r] is ±0
	JZ   swidenext
	VBROADCASTSD (DX), Y4
	VMULPD       (R11), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R11), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R11), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R11), Y4, Y8
	VADDPD       Y8, Y3, Y3

swidenext:
	SUBQ    R9, DX
	SUBQ    R8, R11
	DECQ    R12
	JNZ     swidestep
	VMOVUPD Y0, (DI)(CX*1)
	VMOVUPD Y1, 32(DI)(CX*1)
	VMOVUPD Y2, 64(DI)(CX*1)
	VMOVUPD Y3, 96(DI)(CX*1)
	ADDQ    $128, CX
	JMP     swide

snarrow:
	CMPQ    CX, R8
	JEQ     snextrow
	VMOVUPD (DI)(CX*1), Y0
	MOVQ    steps+40(FP), R12
	MOVQ    R10, DX
	LEAQ    (R13)(CX*1), R11

snarrowstep:
	MOVQ (DX), AX
	SHLQ $1, AX
	JZ   snarrownext
	VBROADCASTSD (DX), Y4
	VMULPD       (R11), Y4, Y5
	VADDPD       Y5, Y0, Y0

snarrownext:
	SUBQ    R9, DX
	SUBQ    R8, R11
	DECQ    R12
	JNZ     snarrowstep
	VMOVUPD Y0, (DI)(CX*1)
	ADDQ    $32, CX
	JMP     snarrow

snextrow:
	ADDQ R8, DI
	ADDQ $8, R10
	DECQ BX
	JNZ  srow
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
