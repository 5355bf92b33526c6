#include "textflag.h"

// AVX2 routines under the element-wise passes of vec.go (vec_amd64.go,
// DESIGN.md §18). One rule: a lane is an element. Every routine walks its
// operands once, a vector at a time and then an element at a time, and
// does to each element what the Go loop does, in the Go loop's order, with
// every multiply, add and subtract rounded on its own (VMULPx, VADDPx,
// VSUBPx — no FMA) and nothing ever summed across lanes. The scalar tail
// runs the same macro on the low lane with the scalar mnemonics, so a
// cell's value does not depend on where the tail starts. Unaligned loads
// and stores throughout; nothing outside the n elements at each pointer is
// read or written.
//
// Registers: DI, SI, DX the operands in argument order, CX n, AX the
// element index, X0/X1 (Y0/Y1) temporaries, X11–X15 (Y11–Y15) broadcast
// scalars or zero.

// LOOP runs vstep while a whole vector is left, then ostep per element.
#define LOOP(lanes, vstep, ostep) \
	XORQ AX, AX; \
	SUBQ $lanes, CX; \
	JLT  tail; \
vec: \
	vstep; \
	ADDQ $lanes, AX; \
	CMPQ AX, CX; \
	JLE  vec; \
tail: \
	ADDQ $lanes, CX; \
	CMPQ AX, CX; \
	JGE  done; \
one: \
	ostep; \
	INCQ AX; \
	CMPQ AX, CX; \
	JLT  one; \
done: \
	VZEROUPPER; \
	RET

// Every step macro takes the same parameters, so that one line per
// precision and width instantiates all of them: the move, add, subtract,
// multiply, compare and integer-equality mnemonics, the element size, two
// temporaries and the five constant registers.
#define VEC32(step) step(VMOVUPS, VADDPS, VSUBPS, VMULPS, VCMPPS, VPCMPEQD, 4, Y0, Y1, Y11, Y12, Y13, Y14, Y15)
#define ONE32(step) step(VMOVSS, VADDSS, VSUBSS, VMULSS, VCMPSS, VPCMPEQD, 4, X0, X1, X11, X12, X13, X14, X15)
#define VEC64(step) step(VMOVUPD, VADDPD, VSUBPD, VMULPD, VCMPPD, VPCMPEQQ, 8, Y0, Y1, Y11, Y12, Y13, Y14, Y15)
#define ONE64(step) step(VMOVSD, VADDSD, VSUBSD, VMULSD, VCMPSD, VPCMPEQQ, 8, X0, X1, X11, X12, X13, X14, X15)

// RELU: dst = x AND (x NLE 0). Predicate 0x16 (not-less-or-equal,
// unordered is true, quiet) holds for x > 0 and for NaN, so positives and
// NaNs keep their bits and everything else — −0 included — becomes +0:
// builtin max(x, 0). c4 is zero.
#define RELU(mov, add, sub, mul, cmp, peq, sz, t0, t1, c0, c1, c2, c3, c4) \
	mov    (SI)(AX*sz), t0; \
	cmp    $0x16, c4, t0, t1; \
	VANDPS t1, t0, t0; \
	mov    t0, (DI)(AX*sz)

// RELUBWD: dx = dout ANDN (out == 0 as an integer): dout passes exactly
// where the bits of out are non-zero. c4 is zero.
#define RELUBWD(mov, add, sub, mul, cmp, peq, sz, t0, t1, c0, c1, c2, c3, c4) \
	mov    (DX)(AX*sz), t0; \
	peq    c4, t0, t0; \
	mov    (SI)(AX*sz), t1; \
	VPANDN t1, t0, t0; \
	mov    t0, (DI)(AX*sz)

// ADD: dst += src.
#define ADD(mov, add, sub, mul, cmp, peq, sz, t0, t1, c0, c1, c2, c3, c4) \
	mov (DI)(AX*sz), t0; \
	add (SI)(AX*sz), t0, t0; \
	mov t0, (DI)(AX*sz)

// ADDSCALAR: dst = src + c4.
#define ADDSCALAR(mov, add, sub, mul, cmp, peq, sz, t0, t1, c0, c1, c2, c3, c4) \
	mov (SI)(AX*sz), t0; \
	add c4, t0, t0; \
	mov t0, (DI)(AX*sz)

// AXPY: dst += c4·src, the product rounded before the sum.
#define AXPY(mov, add, sub, mul, cmp, peq, sz, t0, t1, c0, c1, c2, c3, c4) \
	mov (SI)(AX*sz), t0; \
	mul c4, t0, t0; \
	add (DI)(AX*sz), t0, t0; \
	mov t0, (DI)(AX*sz)

// SCALE: dst = src·c4.
#define SCALE(mov, add, sub, mul, cmp, peq, sz, t0, t1, c0, c1, c2, c3, c4) \
	mov (SI)(AX*sz), t0; \
	mul c4, t0, t0; \
	mov t0, (DI)(AX*sz)

// NORMAFFINE: xh = (x − c1)·c2, xhat = xh, out = c3·xh + c4, with out at
// DI, xhat at SI and x at DX. When SI = DI the second store wins.
#define NORMAFFINE(mov, add, sub, mul, cmp, peq, sz, t0, t1, c0, c1, c2, c3, c4) \
	mov (DX)(AX*sz), t0; \
	sub c1, t0, t0; \
	mul c2, t0, t0; \
	mov t0, (SI)(AX*sz); \
	mul c3, t0, t0; \
	add c4, t0, t0; \
	mov t0, (DI)(AX*sz)

// NORMBWD: dx = c1·(c2·(dout·c0) − c3 − xhat·c4), with dx at DI, dout at
// SI and xhat at DX.
#define NORMBWD(mov, add, sub, mul, cmp, peq, sz, t0, t1, c0, c1, c2, c3, c4) \
	mov (SI)(AX*sz), t0; \
	mul c0, t0, t0; \
	mul c2, t0, t0; \
	sub c3, t0, t0; \
	mov (DX)(AX*sz), t1; \
	mul c4, t1, t1; \
	sub t1, t0, t0; \
	mul c1, t0, t0; \
	mov t0, (DI)(AX*sz)

// func reluF64(dst, x unsafe.Pointer, n int)
TEXT ·reluF64(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPS X15, X15, X15
	LOOP(4, VEC64(RELU), ONE64(RELU))

// func reluF32(dst, x unsafe.Pointer, n int)
TEXT ·reluF32(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPS X15, X15, X15
	LOOP(8, VEC32(RELU), ONE32(RELU))

// func reluBackwardF64(dx, dout, out unsafe.Pointer, n int)
TEXT ·reluBackwardF64(SB), NOSPLIT, $0-32
	MOVQ   dx+0(FP), DI
	MOVQ   dout+8(FP), SI
	MOVQ   out+16(FP), DX
	MOVQ   n+24(FP), CX
	VXORPS X15, X15, X15
	LOOP(4, VEC64(RELUBWD), ONE64(RELUBWD))

// func reluBackwardF32(dx, dout, out unsafe.Pointer, n int)
TEXT ·reluBackwardF32(SB), NOSPLIT, $0-32
	MOVQ   dx+0(FP), DI
	MOVQ   dout+8(FP), SI
	MOVQ   out+16(FP), DX
	MOVQ   n+24(FP), CX
	VXORPS X15, X15, X15
	LOOP(8, VEC32(RELUBWD), ONE32(RELUBWD))

// func addF64(dst, src unsafe.Pointer, n int)
TEXT ·addF64(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	LOOP(4, VEC64(ADD), ONE64(ADD))

// func addF32(dst, src unsafe.Pointer, n int)
TEXT ·addF32(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	LOOP(8, VEC32(ADD), ONE32(ADD))

// func addScalarF64(dst, src unsafe.Pointer, n int, b float64)
TEXT ·addScalarF64(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD b+24(FP), Y15
	LOOP(4, VEC64(ADDSCALAR), ONE64(ADDSCALAR))

// func addScalarF32(dst, src unsafe.Pointer, n int, b float32)
TEXT ·addScalarF32(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS b+24(FP), Y15
	LOOP(8, VEC32(ADDSCALAR), ONE32(ADDSCALAR))

// func axpyF64(dst, src unsafe.Pointer, n int, alpha float64)
TEXT ·axpyF64(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD alpha+24(FP), Y15
	LOOP(4, VEC64(AXPY), ONE64(AXPY))

// func scaleF64(dst, src unsafe.Pointer, n int, alpha float64)
TEXT ·scaleF64(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD alpha+24(FP), Y15
	LOOP(4, VEC64(SCALE), ONE64(SCALE))

// func scaleF32(dst, src unsafe.Pointer, n int, alpha float32)
TEXT ·scaleF32(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS alpha+24(FP), Y15
	LOOP(8, VEC32(SCALE), ONE32(SCALE))

// The three routines that cross the precision boundary handle four
// elements a step: a YMM of float64 beside an XMM of float32. Widening is
// exact; narrowing rounds to nearest even under the default MXCSR, as the
// compiler's CVTSD2SS does.

// func addWidenF32(dst, src unsafe.Pointer, n int)
//
//	dst[i] += float64(src[i])    dst float64, src float32
TEXT ·addWidenF32(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
#define VSTEP \
	VCVTPS2PD (SI)(AX*4), Y0; \
	VADDPD    (DI)(AX*8), Y0, Y0; \
	VMOVUPD   Y0, (DI)(AX*8)
#define OSTEP \
	VMOVSS    (SI)(AX*4), X0; \
	VCVTSS2SD X0, X0, X0; \
	VADDSD    (DI)(AX*8), X0, X0; \
	VMOVSD    X0, (DI)(AX*8)
	LOOP(4, VSTEP, OSTEP)
#undef VSTEP
#undef OSTEP

// func narrowF64(dst, src unsafe.Pointer, n int)
//
//	dst[i] = float32(src[i])    dst float32, src float64
TEXT ·narrowF64(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
#define VSTEP \
	VCVTPD2PSY (SI)(AX*8), X0; \
	VMOVUPS    X0, (DI)(AX*4)
#define OSTEP \
	VMOVSD    (SI)(AX*8), X0; \
	VCVTSD2SS X0, X0, X0; \
	VMOVSS    X0, (DI)(AX*4)
	LOOP(4, VSTEP, OSTEP)
#undef VSTEP
#undef OSTEP

// func widenF32(dst, src unsafe.Pointer, n int)
//
//	dst[i] = float64(src[i])    dst float64, src float32
TEXT ·widenF32(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
#define VSTEP \
	VCVTPS2PD (SI)(AX*4), Y0; \
	VMOVUPD   Y0, (DI)(AX*8)
#define OSTEP \
	VMOVSS    (SI)(AX*4), X0; \
	VCVTSS2SD X0, X0, X0; \
	VMOVSD    X0, (DI)(AX*8)
	LOOP(4, VSTEP, OSTEP)
#undef VSTEP
#undef OSTEP

// func normAffineF64(out, xhat, x unsafe.Pointer, n int, mean, inv, gamma, b float64)
TEXT ·normAffineF64(SB), NOSPLIT, $0-64
	MOVQ         out+0(FP), DI
	MOVQ         xhat+8(FP), SI
	MOVQ         x+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD mean+32(FP), Y12
	VBROADCASTSD inv+40(FP), Y13
	VBROADCASTSD gamma+48(FP), Y14
	VBROADCASTSD b+56(FP), Y15
	LOOP(4, VEC64(NORMAFFINE), ONE64(NORMAFFINE))

// func normAffineF32(out, xhat, x unsafe.Pointer, n int, mean, inv, gamma, b float32)
TEXT ·normAffineF32(SB), NOSPLIT, $0-48
	MOVQ         out+0(FP), DI
	MOVQ         xhat+8(FP), SI
	MOVQ         x+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS mean+32(FP), Y12
	VBROADCASTSS inv+36(FP), Y13
	VBROADCASTSS gamma+40(FP), Y14
	VBROADCASTSS b+44(FP), Y15
	LOOP(8, VEC32(NORMAFFINE), ONE32(NORMAFFINE))

// func normBackwardF64(dx, dout, xhat unsafe.Pointer, n int, gamma, scale, cnt, sumDxh, sumDxhXh float64)
TEXT ·normBackwardF64(SB), NOSPLIT, $0-72
	MOVQ         dx+0(FP), DI
	MOVQ         dout+8(FP), SI
	MOVQ         xhat+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD gamma+32(FP), Y11
	VBROADCASTSD scale+40(FP), Y12
	VBROADCASTSD cnt+48(FP), Y13
	VBROADCASTSD sumDxh+56(FP), Y14
	VBROADCASTSD sumDxhXh+64(FP), Y15
	LOOP(4, VEC64(NORMBWD), ONE64(NORMBWD))

// func normBackwardF32(dx, dout, xhat unsafe.Pointer, n int, gamma, scale, cnt, sumDxh, sumDxhXh float32)
TEXT ·normBackwardF32(SB), NOSPLIT, $0-52
	MOVQ         dx+0(FP), DI
	MOVQ         dout+8(FP), SI
	MOVQ         xhat+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS gamma+32(FP), Y11
	VBROADCASTSS scale+36(FP), Y12
	VBROADCASTSS cnt+40(FP), Y13
	VBROADCASTSS sumDxh+44(FP), Y14
	VBROADCASTSS sumDxhXh+48(FP), Y15
	LOOP(8, VEC32(NORMBWD), ONE32(NORMBWD))
