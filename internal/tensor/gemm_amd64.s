#include "textflag.h"

// AVX2 micro-kernels under the three tiled matmuls (kernels_amd64.go,
// DESIGN.md §17). Each computes a kc-deep panel of FOUR output rows, keeps
// a column tile's partial sums in registers across the panel — one lane
// per output cell — and adds the products in ascending p with a separately
// rounded multiply and add (VMULPx then VADDPx). No FMA, no horizontal
// sum, no lane ever holds two cells: the result is the pure-Go loops'
// result bit for bit. Unaligned loads and stores throughout; nothing is
// read or written outside the 4×n dst rows, the 4×kc a elements and the
// kc×n (NN) or n×kc (NT) b elements the arguments describe.
//
// Registers (all strides scaled to bytes on entry):
//
//	DI dst   R8  ldd   SI a   R9 ars/lda   R13 3·R9   DX b   R11 ldb
//	R12 kc   CX columns left   AX, BX a and b cursors   R14 p counter
//	NN: R10 aps        NT: R10 3·ldb, R15 b + 4·ldb (float32 only)

// LOAD4 and STORE4 move one tile's four accumulators from and to the dst
// rows at DI (AX is free between panels).
#define LOAD4(mov, r0, r1, r2, r3) \
	LEAQ (DI)(R8*2), AX; \
	mov  (DI), r0; \
	mov  (DI)(R8*1), r1; \
	mov  (AX), r2; \
	mov  (AX)(R8*1), r3

#define STORE4(mov, r0, r1, r2, r3) \
	LEAQ (DI)(R8*2), AX; \
	mov  r0, (DI); \
	mov  r1, (DI)(R8*1); \
	mov  r2, (AX); \
	mov  r3, (AX)(R8*1)

// ROWS4 applies a one-accumulator step to the four a rows at the cursor.
#define ROWS4(step, acc0, acc1, acc2, acc3) \
	step((AX), acc0); \
	step((AX)(R9*1), acc1); \
	step((AX)(R9*2), acc2); \
	step((AX)(R13*1), acc3)

// ---- float64 ----

#define ESIZE   8
#define W2      8
#define W1      4
#define WH      2
#define VBCAST  VBROADCASTSD
#define VBCASTX VMOVDDUP
#define VMUL    VMULPD
#define VADD    VADDPD
#define SMUL    VMULSD
#define SADD    VADDSD
#define SMOV    VMOVSD

// func gemmNN4F64(dst unsafe.Pointer, ldd int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, ldb, kc, n int)
TEXT ·gemmNN4F64(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R9
	MOVQ aps+32(FP), R10
	MOVQ b+40(FP), DX
	MOVQ ldb+48(FP), R11
	MOVQ kc+56(FP), R12
	MOVQ n+64(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
#include "gemm_nn_amd64.h"

// TSTEP adds one p step to one row of an NT tile: t holds b[j..][p], one
// lane per output column, aref addresses a[r][p].
#define TSTEP(aref, t, acc) \
	VBCAST aref, Y12; \
	VMUL   t, Y12, Y12; \
	VADD   Y12, acc, acc

// TSTEPH is TSTEP on a half vector.
#define TSTEPH(aref, t, acc) \
	VBCASTX aref, X12; \
	VMUL    t, X12, X12; \
	VADD    X12, acc, acc

// TSTEPS is TSTEP on a single column (b[j][p] in the low lane of X8).
#define TSTEPS(aref, acc) \
	SMUL aref, X8, X12; \
	SADD X12, acc, acc

// TROWS4 applies TSTEP or TSTEPH to the four a rows, o bytes past the
// cursor.
#define TROWS4(step, o, t, acc0, acc1, acc2, acc3) \
	step(o(AX), t, acc0); \
	step(o(AX)(R9*1), t, acc1); \
	step(o(AX)(R9*2), t, acc2); \
	step(o(AX)(R13*1), t, acc3)

// func gemmNT4F64(dst unsafe.Pointer, ldd int, a unsafe.Pointer, lda int, b unsafe.Pointer, ldb, kc, n int)
//
//	dst[r][j] += Σ_{p<kc} a[r·lda + p] · b[j·ldb + p]    r < 4, j < n
//
// Both operands are contiguous along p, so the lane-per-cell vector
// (b[j][p], b[j+1][p], …) is a column of b: it is built in registers by
// transposing a block of b rows, two p at a time, and reused by the four
// a rows.
TEXT ·gemmNT4F64(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ b+32(FP), DX
	MOVQ ldb+40(FP), R11
	MOVQ kc+48(FP), R12
	MOVQ n+56(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R11
	LEAQ (R9)(R9*2), R13
	LEAQ (R11)(R11*2), R10

nt_tile1:
	CMPQ CX, $4
	JLT  nt_tileh
	LOAD4(VMOVUPS, Y0, Y1, Y2, Y3)
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R12, R14
	SUBQ $2, R14
	JLT  nt_tail1

nt_loop1:
	// Y4 = b[j][p,p+1] | b[j+2][p,p+1], Y5 = b[j+1][..] | b[j+3][..]
	VMOVUPS     (BX), X4
	VINSERTF128 $1, (BX)(R11*2), Y4, Y4
	VMOVUPS     (BX)(R11*1), X5
	VINSERTF128 $1, (BX)(R10*1), Y5, Y5
	VUNPCKLPD   Y5, Y4, Y8 // b[j..j+3][p]
	VUNPCKHPD   Y5, Y4, Y9 // b[j..j+3][p+1]
	TROWS4(TSTEP, 0, Y8, Y0, Y1, Y2, Y3)
	TROWS4(TSTEP, 8, Y9, Y0, Y1, Y2, Y3)
	ADDQ $16, AX
	ADDQ $16, BX
	SUBQ $2, R14
	JGE  nt_loop1

nt_tail1:
	ADDQ $2, R14
	JZ   nt_store1
	VMOVSD      (BX), X4
	VMOVHPD     (BX)(R11*1), X4, X4
	VMOVSD      (BX)(R11*2), X5
	VMOVHPD     (BX)(R10*1), X5, X5
	VINSERTF128 $1, X5, Y4, Y8
	TROWS4(TSTEP, 0, Y8, Y0, Y1, Y2, Y3)

nt_store1:
	STORE4(VMOVUPS, Y0, Y1, Y2, Y3)
	ADDQ $32, DI
	LEAQ (DX)(R11*4), DX
	SUBQ $4, CX
	JMP  nt_tile1

nt_tileh:
	CMPQ CX, $2
	JLT  nt_tiles
	LOAD4(VMOVUPS, X0, X1, X2, X3)
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R12, R14
	SUBQ $2, R14
	JLT  nt_tailh

nt_looph:
	VMOVUPS   (BX), X4
	VMOVUPS   (BX)(R11*1), X5
	VUNPCKLPD X5, X4, X8 // b[j,j+1][p]
	VUNPCKHPD X5, X4, X9 // b[j,j+1][p+1]
	TROWS4(TSTEPH, 0, X8, X0, X1, X2, X3)
	TROWS4(TSTEPH, 8, X9, X0, X1, X2, X3)
	ADDQ $16, AX
	ADDQ $16, BX
	SUBQ $2, R14
	JGE  nt_looph

nt_tailh:
	ADDQ $2, R14
	JZ   nt_storeh
	VMOVSD  (BX), X8
	VMOVHPD (BX)(R11*1), X8, X8
	TROWS4(TSTEPH, 0, X8, X0, X1, X2, X3)

nt_storeh:
	STORE4(VMOVUPS, X0, X1, X2, X3)
	ADDQ $16, DI
	LEAQ (DX)(R11*2), DX
	SUBQ $2, CX

nt_tiles:
	TESTQ CX, CX
	JZ    nt_done
	LOAD4(VMOVSD, X0, X1, X2, X3)
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R12, R14

nt_loops:
	VMOVSD (BX), X8
	ROWS4(TSTEPS, X0, X1, X2, X3)
	ADDQ $8, AX
	ADDQ $8, BX
	DECQ R14
	JNZ  nt_loops

	STORE4(VMOVSD, X0, X1, X2, X3)

nt_done:
	VZEROUPPER
	RET

#undef ESIZE
#undef W2
#undef W1
#undef WH
#undef VBCAST
#undef VBCASTX
#undef VMUL
#undef VADD
#undef SMUL
#undef SADD
#undef SMOV

// ---- float32 ----

#define ESIZE   4
#define W2      16
#define W1      8
#define WH      4
#define VBCAST  VBROADCASTSS
#define VBCASTX VBROADCASTSS
#define VMUL    VMULPS
#define VADD    VADDPS
#define SMUL    VMULSS
#define SADD    VADDSS
#define SMOV    VMOVSS

// func gemmNN4F32(dst unsafe.Pointer, ldd int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, ldb, kc, n int)
TEXT ·gemmNN4F32(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R9
	MOVQ aps+32(FP), R10
	MOVQ b+40(FP), DX
	MOVQ ldb+48(FP), R11
	MOVQ kc+56(FP), R12
	MOVQ n+64(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R11
#include "gemm_nn_amd64.h"

// TRANSPOSE4 turns four registers holding b[j+i][p..p+3] (i = 0..3, per
// 128-bit lane) into o0..o3 holding b[j..j+3][p+q] (q = 0..3, per lane).
// With the X names it transposes one 4×4 block; with the Y names two at
// once, the upper lanes carrying rows j+4..j+7.
#define TRANSPOSE4(r0, r1, r2, r3, t0, t1, t2, t3, o0, o1, o2, o3) \
	VUNPCKLPS r1, r0, t0; \
	VUNPCKHPS r1, r0, t1; \
	VUNPCKLPS r3, r2, t2; \
	VUNPCKHPS r3, r2, t3; \
	VUNPCKLPD t2, t0, o0; \
	VUNPCKHPD t2, t0, o1; \
	VUNPCKLPD t3, t1, o2; \
	VUNPCKHPD t3, t1, o3

// func gemmNT4F32(dst unsafe.Pointer, ldd int, a unsafe.Pointer, lda int, b unsafe.Pointer, ldb, kc, n int)
//
// gemmNT4F64 with eight (then four, then one) columns per tile and the
// transpose done four p at a time.
TEXT ·gemmNT4F32(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ b+32(FP), DX
	MOVQ ldb+40(FP), R11
	MOVQ kc+48(FP), R12
	MOVQ n+56(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R11
	LEAQ (R9)(R9*2), R13
	LEAQ (R11)(R11*2), R10

nt_tile1:
	CMPQ CX, $8
	JLT  nt_tileh
	LOAD4(VMOVUPS, Y0, Y1, Y2, Y3)
	MOVQ SI, AX
	MOVQ DX, BX
	LEAQ (DX)(R11*4), R15
	MOVQ R12, R14
	SUBQ $4, R14
	JLT  nt_tail1

nt_loop1:
	// Y4+i = b[j+i][p..p+3] | b[j+4+i][p..p+3]
	VMOVUPS     (BX), X4
	VINSERTF128 $1, (R15), Y4, Y4
	VMOVUPS     (BX)(R11*1), X5
	VINSERTF128 $1, (R15)(R11*1), Y5, Y5
	VMOVUPS     (BX)(R11*2), X6
	VINSERTF128 $1, (R15)(R11*2), Y6, Y6
	VMOVUPS     (BX)(R10*1), X7
	VINSERTF128 $1, (R15)(R10*1), Y7, Y7
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y12, Y13, Y14, Y15, Y8, Y9, Y10, Y11)
	TROWS4(TSTEP, 0, Y8, Y0, Y1, Y2, Y3)
	TROWS4(TSTEP, 4, Y9, Y0, Y1, Y2, Y3)
	TROWS4(TSTEP, 8, Y10, Y0, Y1, Y2, Y3)
	TROWS4(TSTEP, 12, Y11, Y0, Y1, Y2, Y3)
	ADDQ $16, AX
	ADDQ $16, BX
	ADDQ $16, R15
	SUBQ $4, R14
	JGE  nt_loop1

nt_tail1:
	ADDQ $4, R14
	JZ   nt_store1

nt_tailloop1:
	VMOVSS      (BX), X4
	VINSERTPS   $0x10, (BX)(R11*1), X4, X4
	VINSERTPS   $0x20, (BX)(R11*2), X4, X4
	VINSERTPS   $0x30, (BX)(R10*1), X4, X4
	VMOVSS      (R15), X5
	VINSERTPS   $0x10, (R15)(R11*1), X5, X5
	VINSERTPS   $0x20, (R15)(R11*2), X5, X5
	VINSERTPS   $0x30, (R15)(R10*1), X5, X5
	VINSERTF128 $1, X5, Y4, Y8
	TROWS4(TSTEP, 0, Y8, Y0, Y1, Y2, Y3)
	ADDQ $4, AX
	ADDQ $4, BX
	ADDQ $4, R15
	DECQ R14
	JNZ  nt_tailloop1

nt_store1:
	STORE4(VMOVUPS, Y0, Y1, Y2, Y3)
	ADDQ $32, DI
	LEAQ (DX)(R11*8), DX
	SUBQ $8, CX
	JMP  nt_tile1

nt_tileh:
	CMPQ CX, $4
	JLT  nt_tiles
	LOAD4(VMOVUPS, X0, X1, X2, X3)
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R12, R14
	SUBQ $4, R14
	JLT  nt_tailh

nt_looph:
	VMOVUPS (BX), X4
	VMOVUPS (BX)(R11*1), X5
	VMOVUPS (BX)(R11*2), X6
	VMOVUPS (BX)(R10*1), X7
	TRANSPOSE4(X4, X5, X6, X7, X12, X13, X14, X15, X8, X9, X10, X11)
	TROWS4(TSTEPH, 0, X8, X0, X1, X2, X3)
	TROWS4(TSTEPH, 4, X9, X0, X1, X2, X3)
	TROWS4(TSTEPH, 8, X10, X0, X1, X2, X3)
	TROWS4(TSTEPH, 12, X11, X0, X1, X2, X3)
	ADDQ $16, AX
	ADDQ $16, BX
	SUBQ $4, R14
	JGE  nt_looph

nt_tailh:
	ADDQ $4, R14
	JZ   nt_storeh

nt_tailloop_h:
	VMOVSS    (BX), X8
	VINSERTPS $0x10, (BX)(R11*1), X8, X8
	VINSERTPS $0x20, (BX)(R11*2), X8, X8
	VINSERTPS $0x30, (BX)(R10*1), X8, X8
	TROWS4(TSTEPH, 0, X8, X0, X1, X2, X3)
	ADDQ $4, AX
	ADDQ $4, BX
	DECQ R14
	JNZ  nt_tailloop_h

nt_storeh:
	STORE4(VMOVUPS, X0, X1, X2, X3)
	ADDQ $16, DI
	LEAQ (DX)(R11*4), DX
	SUBQ $4, CX

nt_tiles:
	TESTQ CX, CX
	JZ    nt_done
	LOAD4(VMOVSS, X0, X1, X2, X3)
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R12, R14

nt_loops:
	VMOVSS (BX), X8
	ROWS4(TSTEPS, X0, X1, X2, X3)
	ADDQ $4, AX
	ADDQ $4, BX
	DECQ R14
	JNZ  nt_loops

	STORE4(VMOVSS, X0, X1, X2, X3)
	ADDQ $4, DI
	ADDQ R11, DX
	DECQ CX
	JMP  nt_tiles

nt_done:
	VZEROUPPER
	RET
