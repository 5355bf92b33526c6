package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// The element-wise passes of the train step: everything between the
// matmuls that touches each activation, gradient or parameter once. Each
// exported function is one pass over equal-length slices; the loops with
// the Go suffix below are the semantics, kept verbatim from the layers
// they were lifted out of. On amd64 with AVX2 the exported functions run
// the routines of vec_amd64.s instead (vec_amd64.go), everywhere else the
// Go loops (vec_noasm.go); CPUID decides, as for the matmuls, and nothing
// else does.
//
// One rule makes the two paths the same function (DESIGN.md §3): a lane
// is an element. Each element's arithmetic is the Go loop's arithmetic in
// the Go loop's order, every multiply and add rounded on its own, and no
// sum is ever split across lanes — none of these passes reduces. So the
// choice of path, like the choice of slice boundaries a caller makes,
// never shows in a result bit.

func checkLens(op string, want int, got ...int) {
	for _, n := range got {
		if n != want {
			panic(fmt.Sprintf("tensor: %s length mismatch %d vs %d", op, want, n))
		}
	}
}

// Relu sets dst[i] = max(x[i], 0) with the builtin's corner cases: −0 and
// every negative value give +0, NaN stays NaN.
func Relu[E Elem](dst, x []E) {
	checkLens("Relu", len(dst), len(x))
	relu(dst, x)
}

func reluGo[E Elem](dst, x []E) {
	for i, v := range x {
		dst[i] = max(v, 0)
	}
}

// ReluBackward gates dout by a ReLU's cached output: dx[i] = dout[i] where
// the bits of out[i] are non-zero (the input was positive, or NaN), +0
// elsewhere.
func ReluBackward[E Elem](dx, dout, out []E) {
	checkLens("ReluBackward", len(dx), len(dout), len(out))
	reluBackward(dx, dout, out)
}

// reluBackwardGo is the layers' branch-free loop: (ob | −ob) has its sign
// bit set exactly when ob ≠ 0, and the arithmetic shift spreads that bit
// into an all-ones or all-zero word that gates dout.
func reluBackwardGo[E Elem](dx, dout, out []E) {
	if is64[E]() {
		dx, dout, out := as64(dx), as64(dout), as64(out)
		for i, v := range dout {
			ob := math.Float64bits(out[i])
			keep := uint64(int64(ob|-ob) >> 63)
			dx[i] = math.Float64frombits(math.Float64bits(v) & keep)
		}
		return
	}
	dxf, doutf, outf := as32(dx), as32(dout), as32(out)
	for i, v := range doutf {
		ob := math.Float32bits(outf[i])
		keep := uint32(int32(ob|-ob) >> 31)
		dxf[i] = math.Float32frombits(math.Float32bits(v) & keep)
	}
}

// is64 reports whether E is an 8-byte element; it folds to a constant in
// each instantiation.
func is64[E Elem]() bool {
	var e E
	return unsafe.Sizeof(e) == 8
}

// as64 and as32 view a slice of 8- or 4-byte elements as the underlying
// float type, for the loops that need an element's bits.
func as64[E Elem](s []E) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

func as32[E Elem](s []E) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// Add accumulates src into dst: dst[i] += src[i].
func Add[E Elem](dst, src []E) {
	checkLens("Add", len(dst), len(src))
	add(dst, src)
}

func addGo[E Elem](dst, src []E) {
	for i, v := range src {
		dst[i] += v
	}
}

// AddScalar sets dst[i] = src[i] + b, the bias epilogue of one output
// channel. dst and src may be the same slice.
func AddScalar[E Elem](dst, src []E, b E) {
	checkLens("AddScalar", len(dst), len(src))
	addScalar(dst, src, b)
}

func addScalarGo[E Elem](dst, src []E, b E) {
	for i, v := range src {
		dst[i] = v + b
	}
}

// Axpy accumulates alpha·src into dst: dst[i] += alpha*src[i], the product
// rounded before the sum (never fused). Only parameters, gradients and
// optimizer state take this pass, and those are float64 on either backend,
// so only float64 has a vector routine.
func Axpy[E Elem](dst []E, alpha E, src []E) {
	checkLens("Axpy", len(dst), len(src))
	axpy(dst, alpha, src)
}

// axpyGo and the other loops below write every product as E(a*b): the
// conversion is a rounding point the Go spec guarantees, so no compiler
// fuses the multiply into the add (arm64's would, DESIGN.md §3).
func axpyGo[E Elem](dst []E, alpha E, src []E) {
	for i, v := range src {
		dst[i] += E(alpha * v)
	}
}

// Scale sets dst[i] = src[i] * alpha. dst and src may be the same slice.
func Scale[E Elem](dst, src []E, alpha E) {
	checkLens("Scale", len(dst), len(src))
	scale(dst, src, alpha)
}

func scaleGo[E Elem](dst, src []E, alpha E) {
	for i, v := range src {
		dst[i] = v * alpha
	}
}

// AddWiden accumulates src into the float64 dst: dst[i] += float64(src[i]),
// the step that carries a gradient of either precision into the
// canonical-precision Param.Grad. For float64 src it is Add.
func AddWiden[E Elem](dst []float64, src []E) {
	checkLens("AddWiden", len(dst), len(src))
	if is64[E]() {
		add(dst, as64(src))
		return
	}
	addWiden(dst, as32(src))
}

func addWidenGo(dst []float64, src []float32) {
	for i, v := range src {
		dst[i] += float64(v)
	}
}

// narrowGo and widenGo are the float32 loops of From64 and To64: round to
// float32, and the exact conversion back.
func narrowGo(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}

func widenGo(dst []float64, src []float32) {
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// NormAffine is batch normalization's per-channel normalize pass over one
// row: xh = (x[i] − mean)·inv, xhat[i] = xh, out[i] = g·xh + b. A nil xhat
// (inference) stores only out.
func NormAffine[E Elem](out, xhat, x []E, mean, inv, g, b E) {
	if xhat == nil {
		// The same address twice: the xhat store is overwritten by the
		// out store that follows it in every loop below.
		xhat = out
	}
	checkLens("NormAffine", len(out), len(xhat), len(x))
	normAffine(out, xhat, x, mean, inv, g, b)
}

func normAffineGo[E Elem](out, xhat, x []E, mean, inv, g, b E) {
	for i, v := range x {
		xh := (v - mean) * inv
		xhat[i] = xh
		out[i] = E(g*xh) + b
	}
}

// NormBackward is batch normalization's per-channel input-gradient pass
// over one row: dxh = dout[i]·g, dx[i] = scale·(cnt·dxh − sumDxh −
// xhat[i]·sumDxhXh), evaluated left to right.
func NormBackward[E Elem](dx, dout, xhat []E, g, scale, cnt, sumDxh, sumDxhXh E) {
	checkLens("NormBackward", len(dx), len(dout), len(xhat))
	normBackward(dx, dout, xhat, g, scale, cnt, sumDxh, sumDxhXh)
}

func normBackwardGo[E Elem](dx, dout, xhat []E, g, scale, cnt, sumDxh, sumDxhXh E) {
	for i, d := range dout {
		dxh := d * g
		dx[i] = scale * (E(cnt*dxh) - sumDxh - E(xhat[i]*sumDxhXh))
	}
}
