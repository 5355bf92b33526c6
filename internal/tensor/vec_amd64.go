package tensor

import "unsafe"

// The element-wise passes on amd64: the AVX2 routines of vec_amd64.s when
// useAVX2 (kernels_amd64.go) says so, the Go loops of vec.go otherwise.

// The routines (vec_amd64.s). Each makes one pass over n ≥ 0 elements at
// the given addresses and reads and writes nothing else; the exported
// functions of vec.go have checked the lengths.
//
//go:noescape
func reluF64(dst, x unsafe.Pointer, n int)

//go:noescape
func reluF32(dst, x unsafe.Pointer, n int)

//go:noescape
func reluBackwardF64(dx, dout, out unsafe.Pointer, n int)

//go:noescape
func reluBackwardF32(dx, dout, out unsafe.Pointer, n int)

//go:noescape
func addF64(dst, src unsafe.Pointer, n int)

//go:noescape
func addF32(dst, src unsafe.Pointer, n int)

//go:noescape
func addScalarF64(dst, src unsafe.Pointer, n int, b float64)

//go:noescape
func addScalarF32(dst, src unsafe.Pointer, n int, b float32)

//go:noescape
func axpyF64(dst, src unsafe.Pointer, n int, alpha float64)

//go:noescape
func scaleF64(dst, src unsafe.Pointer, n int, alpha float64)

//go:noescape
func scaleF32(dst, src unsafe.Pointer, n int, alpha float32)

//go:noescape
func addWidenF32(dst, src unsafe.Pointer, n int)

//go:noescape
func narrowF64(dst, src unsafe.Pointer, n int)

//go:noescape
func widenF32(dst, src unsafe.Pointer, n int)

//go:noescape
func normAffineF64(out, xhat, x unsafe.Pointer, n int, mean, inv, gamma, b float64)

//go:noescape
func normAffineF32(out, xhat, x unsafe.Pointer, n int, mean, inv, gamma, b float32)

//go:noescape
func normBackwardF64(dx, dout, xhat unsafe.Pointer, n int, gamma, scale, cnt, sumDxh, sumDxhXh float64)

//go:noescape
func normBackwardF32(dx, dout, xhat unsafe.Pointer, n int, gamma, scale, cnt, sumDxh, sumDxhXh float32)

// ptr is the address of s's first element.
func ptr[E any](s []E) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(s)) }

func relu[E Elem](dst, x []E) {
	switch n := len(x); {
	case !useAVX2:
		reluGo(dst, x)
	case is64[E]():
		reluF64(ptr(dst), ptr(x), n)
	default:
		reluF32(ptr(dst), ptr(x), n)
	}
}

func reluBackward[E Elem](dx, dout, out []E) {
	switch n := len(dx); {
	case !useAVX2:
		reluBackwardGo(dx, dout, out)
	case is64[E]():
		reluBackwardF64(ptr(dx), ptr(dout), ptr(out), n)
	default:
		reluBackwardF32(ptr(dx), ptr(dout), ptr(out), n)
	}
}

func add[E Elem](dst, src []E) {
	switch n := len(dst); {
	case !useAVX2:
		addGo(dst, src)
	case is64[E]():
		addF64(ptr(dst), ptr(src), n)
	default:
		addF32(ptr(dst), ptr(src), n)
	}
}

func addScalar[E Elem](dst, src []E, b E) {
	switch n := len(dst); {
	case !useAVX2:
		addScalarGo(dst, src, b)
	case is64[E]():
		addScalarF64(ptr(dst), ptr(src), n, float64(b))
	default:
		addScalarF32(ptr(dst), ptr(src), n, float32(b))
	}
}

func axpy[E Elem](dst []E, alpha E, src []E) {
	if n := len(dst); useAVX2 && is64[E]() {
		axpyF64(ptr(dst), ptr(src), n, float64(alpha))
		return
	}
	axpyGo(dst, alpha, src)
}

func scale[E Elem](dst, src []E, alpha E) {
	switch n := len(dst); {
	case !useAVX2:
		scaleGo(dst, src, alpha)
	case is64[E]():
		scaleF64(ptr(dst), ptr(src), n, float64(alpha))
	default:
		scaleF32(ptr(dst), ptr(src), n, float32(alpha))
	}
}

func addWiden(dst []float64, src []float32) {
	if n := len(dst); useAVX2 {
		addWidenF32(ptr(dst), ptr(src), n)
		return
	}
	addWidenGo(dst, src)
}

func narrow(dst []float32, src []float64) {
	if n := len(dst); useAVX2 {
		narrowF64(ptr(dst), ptr(src), n)
		return
	}
	narrowGo(dst, src)
}

func widen(dst []float64, src []float32) {
	if n := len(dst); useAVX2 {
		widenF32(ptr(dst), ptr(src), n)
		return
	}
	widenGo(dst, src)
}

func normAffine[E Elem](out, xhat, x []E, mean, inv, g, b E) {
	switch n := len(out); {
	case !useAVX2:
		normAffineGo(out, xhat, x, mean, inv, g, b)
	case is64[E]():
		normAffineF64(ptr(out), ptr(xhat), ptr(x), n, float64(mean), float64(inv), float64(g), float64(b))
	default:
		normAffineF32(ptr(out), ptr(xhat), ptr(x), n, float32(mean), float32(inv), float32(g), float32(b))
	}
}

func normBackward[E Elem](dx, dout, xhat []E, g, scale, cnt, sumDxh, sumDxhXh E) {
	switch n := len(dx); {
	case !useAVX2:
		normBackwardGo(dx, dout, xhat, g, scale, cnt, sumDxh, sumDxhXh)
	case is64[E]():
		normBackwardF64(ptr(dx), ptr(dout), ptr(xhat), n, float64(g), float64(scale), float64(cnt), float64(sumDxh), float64(sumDxhXh))
	default:
		normBackwardF32(ptr(dx), ptr(dout), ptr(xhat), n, float32(g), float32(scale), float32(cnt), float32(sumDxh), float32(sumDxhXh))
	}
}
