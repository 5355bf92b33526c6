//go:build !amd64

package tensor

// Off amd64 the tiled kernels are the pure-Go loops of kernels.go; the
// vectorized path (kernels_amd64.go) is amd64 assembly only.

func matmulTiled[E Elem](dst, a, b []E, lo, hi, k, n int) {
	matmulTiledGo(dst, a, b, lo, hi, k, n)
}

func matmulTransBTiled[E Elem](dst, a, b []E, lo, hi, k, n int) {
	matmulTransBTiledGo(dst, a, b, lo, hi, k, n)
}

func matmulTransATiled[E Elem](dst, a, b []E, lo, hi, k, m, n int) {
	matmulTransATiledGo(dst, a, b, lo, hi, k, m, n)
}
