package tensor

import (
	"fmt"
	"unsafe"

	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// parallelFlopCutoff is the minimum multiply-add count (m·k·n) at which the
// matmul kernels split their output rows across workers. Below it the cost
// of spawning and joining goroutines exceeds the arithmetic itself (the
// SmallCNN per-batch matmuls sit under this line on purpose). Each output
// row is computed by exactly one worker with the same inner-loop order as
// the serial kernel, so results are bit-identical for any worker count.
const parallelFlopCutoff = 1 << 17

// parallelRows reports whether an m-row kernel with work total multiply-adds
// should run row-blocked across workers.
func parallelRows(m, work int) bool {
	return m > 1 && work >= parallelFlopCutoff && parallel.Workers() > 1
}

// checkNoOverlap panics if dst shares any element with a or b. The Into
// kernels zero or overwrite dst while they still read the operands, so an
// aliased call has no meaningful result — and which garbage it computes
// would differ between the vector and the scalar kernels. Two address
// comparisons per operand; nothing is allocated unless it panics.
func checkNoOverlap[E Elem](op string, dst, a, b []E) {
	if overlaps(dst, a) || overlaps(dst, b) {
		panic(fmt.Sprintf("tensor: %s dst overlaps an operand", op))
	}
}

// overlaps reports whether the element ranges of x and y intersect.
func overlaps[E Elem](x, y []E) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	size := unsafe.Sizeof(x[0])
	xLo, yLo := uintptr(unsafe.Pointer(&x[0])), uintptr(unsafe.Pointer(&y[0]))
	return xLo < yLo+uintptr(len(y))*size && yLo < xLo+uintptr(len(x))*size
}

// MatMulInto computes dst = a·b, reusing dst's buffer. dst must be m×n and,
// as for every Into kernel, must not overlap a or b.
func MatMulInto[E Elem](dst, a, b *Of[E]) {
	m, k, n := checkMatMul(a, b)
	checkInto("MatMulInto", dst, a, b, m, n)
	dst.Zero()
	matmulInto(dst.Data, a.Data, b.Data, m, k, n)
}

// checkInto panics unless dst is m×n and overlaps neither operand.
func checkInto[E Elem](op string, dst, a, b *Of[E], m, n int) {
	if dst.Rank() != 2 || dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want [%d %d]", op, dst.shape, m, n))
	}
	checkNoOverlap(op, dst.Data, a.Data, b.Data)
}

func checkMatMul[E Elem](a, b *Of[E]) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	m, k = a.Dim(0), a.Dim(1)
	if b.Dim(0) != k {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", a.shape, b.shape))
	}
	return m, k, b.Dim(1)
}

// matmulInto accumulates a (m×k) times b (k×n) into dst (m×n). dst must be
// zeroed by the caller (New returns zeroed storage). Large products are
// split over contiguous row blocks; each block runs the identical tiled
// kernel, so the parallel result matches the serial one bit for bit.
func matmulInto[E Elem](dst, a, b []E, m, k, n int) {
	if parallelRows(m, m*k*n) {
		parallel.ForBlocks(m, func(lo, hi int) {
			matmulTiled(dst, a, b, lo, hi, k, n)
		})
		return
	}
	matmulTiled(dst, a, b, 0, m, k, n)
}

// MatMulTransBInto computes dst = a·bᵀ for a (m×k) and b (n×k), reusing
// dst's buffer. dst must be m×n; every cell is overwritten. Used by the dense
// and conv backward passes, avoiding an explicit transpose allocation; the
// result is bit-identical at any worker count.
func MatMulTransBInto[E Elem](dst, a, b *Of[E]) {
	m, k, n := checkMatMulTransB(a, b)
	checkInto("MatMulTransBInto", dst, a, b, m, n)
	matmulTransBInto(dst.Data, a.Data, b.Data, m, k, n)
}

// matmulTransBInto overwrites dst (m×n) with a·bᵀ, row-blocking large
// products across workers.
func matmulTransBInto[E Elem](dst, a, b []E, m, k, n int) {
	if parallelRows(m, m*k*n) {
		parallel.ForBlocks(m, func(lo, hi int) {
			matmulTransBTiled(dst, a, b, lo, hi, k, n)
		})
		return
	}
	matmulTransBTiled(dst, a, b, 0, m, k, n)
}

func checkMatMulTransB[E Elem](a, b *Of[E]) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransB requires rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	m, k = a.Dim(0), a.Dim(1)
	n = b.Dim(0)
	if b.Dim(1) != k {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v × %vᵀ", a.shape, b.shape))
	}
	return m, k, n
}

// MatMulTransAInto computes dst = aᵀ·b for a (k×m) and b (k×n), reusing
// dst's buffer. dst must be m×n; it is zeroed first because the kernel
// accumulates. Used to compute weight gradients without materializing the
// transpose; the result is bit-identical at any worker count.
func MatMulTransAInto[E Elem](dst, a, b *Of[E]) {
	m, k, n := checkMatMulTransA(a, b)
	checkInto("MatMulTransAInto", dst, a, b, m, n)
	dst.Zero()
	matmulTransAInto(dst.Data, a.Data, b.Data, k, m, n)
}

func checkMatMulTransA[E Elem](a, b *Of[E]) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransA requires rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	k, m = a.Dim(0), a.Dim(1)
	if b.Dim(0) != k {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimension mismatch %vᵀ × %v", a.shape, b.shape))
	}
	return m, k, b.Dim(1)
}

// matmulTransAInto accumulates aᵀ·b into dst, which the caller has zeroed.
func matmulTransAInto[E Elem](dst, a, b []E, k, m, n int) {
	if parallelRows(m, m*k*n) {
		parallel.ForBlocks(m, func(lo, hi int) {
			matmulTransATiled(dst, a, b, lo, hi, k, m, n)
		})
		return
	}
	matmulTransATiled(dst, a, b, 0, m, k, m, n)
}
