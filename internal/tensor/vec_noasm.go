//go:build !amd64

package tensor

// Off amd64 the element-wise passes are the Go loops of vec.go.

func relu[E Elem](dst, x []E)                { reluGo(dst, x) }
func reluBackward[E Elem](dx, dout, out []E) { reluBackwardGo(dx, dout, out) }
func add[E Elem](dst, src []E)               { addGo(dst, src) }
func addScalar[E Elem](dst, src []E, b E)    { addScalarGo(dst, src, b) }
func axpy[E Elem](dst []E, alpha E, src []E) { axpyGo(dst, alpha, src) }
func scale[E Elem](dst, src []E, alpha E)    { scaleGo(dst, src, alpha) }
func addWiden(dst []float64, src []float32)  { addWidenGo(dst, src) }
func narrow(dst []float32, src []float64)    { narrowGo(dst, src) }
func widen(dst []float64, src []float32)     { widenGo(dst, src) }

func normAffine[E Elem](out, xhat, x []E, mean, inv, g, b E) {
	normAffineGo(out, xhat, x, mean, inv, g, b)
}

func normBackward[E Elem](dx, dout, xhat []E, g, scale, cnt, sumDxh, sumDxhXh E) {
	normBackwardGo(dx, dout, xhat, g, scale, cnt, sumDxh, sumDxhXh)
}
