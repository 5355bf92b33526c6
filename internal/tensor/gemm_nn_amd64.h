// Body of gemmNN4F64 and gemmNN4F32 (gemm_amd64.s), which differ only in
// element width. The including file defines the arithmetic mnemonics
// (VBCAST, VBCASTX, VMUL, VADD, SMUL, SADD, SMOV), the element size ESIZE
// and the column counts of one, two and half a YMM vector (W1, W2, WH)
// for its element type, and the LOAD4, STORE4 and ROWS4 helpers; after
// its TEXT line it loads the arguments, scales the strides to bytes and
// includes this file.
//
// On entry: DI = dst, R8 = ldd, SI = a, R9 = ars, R10 = aps, DX = b,
// R11 = ldb (all strides in bytes), R12 = kc (> 0), CX = n.
//
// The kernel adds a kc-deep panel product into four dst rows:
//
//	dst[r][j] += Σ_{p<kc} a[r·ars + p·aps] · b[p·ldb + j]    r < 4, j < n
//
// A column tile's partial sums live in registers across the whole panel
// (loaded from dst before, stored after), one lane per output cell. Every
// p step is a separately rounded multiply followed by a separately rounded
// add, in ascending p — the order and the roundings of the pure-Go loops
// in kernels.go, so the results are the same bits. Lanes never mix and
// nothing is fused.

// STEP2 adds one p step to one row of a two-vector tile: Y8, Y9 hold
// b[p][j..], aref addresses a[r][p].
#define STEP2(aref, acc0, acc1) \
	VBCAST aref, Y10; \
	VMUL   Y8, Y10, Y11; \
	VMUL   Y9, Y10, Y12; \
	VADD   Y11, acc0, acc0; \
	VADD   Y12, acc1, acc1

// STEP1 is STEP2 for a one-vector tile (b in Y8).
#define STEP1(aref, acc) \
	VBCAST aref, Y10; \
	VMUL   Y8, Y10, Y11; \
	VADD   Y11, acc, acc

// STEPH is STEP1 on a half vector (b in X8).
#define STEPH(aref, acc) \
	VBCASTX aref, X10; \
	VMUL    X8, X10, X11; \
	VADD    X11, acc, acc

// STEPS is STEP1 on a single column (b in the low lane of X8).
#define STEPS(aref, acc) \
	SMUL aref, X8, X11; \
	SADD X11, acc, acc

	LEAQ (R9)(R9*2), R13 // 3·ars

nn_tile2:
	CMPQ CX, $W2
	JLT  nn_tile1
	LEAQ (DI)(R8*2), AX
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R8*1), Y2
	VMOVUPS 32(DI)(R8*1), Y3
	VMOVUPS (AX), Y4
	VMOVUPS 32(AX), Y5
	VMOVUPS (AX)(R8*1), Y6
	VMOVUPS 32(AX)(R8*1), Y7
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R12, R14

nn_loop2:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	STEP2((AX), Y0, Y1)
	STEP2((AX)(R9*1), Y2, Y3)
	STEP2((AX)(R9*2), Y4, Y5)
	STEP2((AX)(R13*1), Y6, Y7)
	ADDQ R10, AX
	ADDQ R11, BX
	DECQ R14
	JNZ  nn_loop2

	LEAQ (DI)(R8*2), AX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y3, 32(DI)(R8*1)
	VMOVUPS Y4, (AX)
	VMOVUPS Y5, 32(AX)
	VMOVUPS Y6, (AX)(R8*1)
	VMOVUPS Y7, 32(AX)(R8*1)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $W2, CX
	JMP  nn_tile2

nn_tile1:
	CMPQ CX, $W1
	JLT  nn_tileh
	LOAD4(VMOVUPS, Y0, Y1, Y2, Y3)
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R12, R14

nn_loop1:
	VMOVUPS (BX), Y8
	ROWS4(STEP1, Y0, Y1, Y2, Y3)
	ADDQ R10, AX
	ADDQ R11, BX
	DECQ R14
	JNZ  nn_loop1

	STORE4(VMOVUPS, Y0, Y1, Y2, Y3)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $W1, CX

nn_tileh:
	CMPQ CX, $WH
	JLT  nn_tiles
	LOAD4(VMOVUPS, X0, X1, X2, X3)
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R12, R14

nn_looph:
	VMOVUPS (BX), X8
	ROWS4(STEPH, X0, X1, X2, X3)
	ADDQ R10, AX
	ADDQ R11, BX
	DECQ R14
	JNZ  nn_looph

	STORE4(VMOVUPS, X0, X1, X2, X3)
	ADDQ $16, DI
	ADDQ $16, DX
	SUBQ $WH, CX

nn_tiles:
	TESTQ CX, CX
	JZ    nn_done
	LOAD4(SMOV, X0, X1, X2, X3)
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R12, R14

nn_loops:
	SMOV (BX), X8
	ROWS4(STEPS, X0, X1, X2, X3)
	ADDQ R10, AX
	ADDQ R11, BX
	DECQ R14
	JNZ  nn_loops

	STORE4(SMOV, X0, X1, X2, X3)
	ADDQ $ESIZE, DI
	ADDQ $ESIZE, DX
	DECQ CX
	JMP  nn_tiles

nn_done:
	VZEROUPPER
	RET

#undef STEP2
#undef STEP1
#undef STEPH
#undef STEPS
