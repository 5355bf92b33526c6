// Package tensor implements the dense numeric arrays underpinning the
// fedcleanse neural-network stack. Tensors are row-major buffers of either
// element type (Elem) with an explicit shape; Tensor, the float64 one, is
// what crosses every package boundary. The package is deliberately small:
// it provides exactly the operations the CNN layers in internal/nn need
// (matrix multiplication, im2col, element-wise arithmetic, reductions and
// weight statistics) with no external dependencies.
//
// The hot loops have two forms that give the same bits: pure Go, and on
// amd64 CPUs with AVX2 the assembly of gemm_amd64.s (the three tiled
// matmuls, DESIGN.md §3) and vec_amd64.s (the element-wise passes of
// vec.go: ReLU, bias and gradient adds, axpy, precision conversions,
// BatchNorm's normalize and dx rows, DESIGN.md §3). CPUID picks at
// start-up; there is no flag. ConvIndex is the table form of
// Im2Col/Col2Im for narrow feature maps, in plain Go on every platform.
//
// All operations either mutate the receiver in place (methods with verb
// names such as Add, Scale, Zero) or allocate a fresh result (package
// functions such as MatMul). Shape mismatches are programming errors and
// panic; they are never expected at runtime after construction.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Of is a dense row-major array of E values. The layer stack runs in
// either precision over it (DESIGN.md §3); everything else uses Tensor.
//
// The zero value is an empty tensor. Use New, NewOf or FromSlice to
// create a tensor with a shape.
type Of[E Elem] struct {
	// Data holds the elements in row-major order. Exposed so hot loops in
	// internal/nn can iterate without bounds-checked accessor calls.
	Data []E
	// shape holds the extent of each dimension.
	shape []int
}

// Tensor is the float64 tensor: parameters, gradients, batches, and every
// activation a caller of internal/nn sees.
type Tensor = Of[float64]

// New returns a zero-filled float64 tensor with the given shape.
// It panics if any dimension is negative or the shape is empty.
func New(shape ...int) *Tensor { return NewOf[float64](shape...) }

// NewOf returns a zero-filled tensor of E with the given shape.
func NewOf[E Elem](shape ...int) *Of[E] {
	n := checkShape(shape)
	return &Of[E]{
		Data:  make([]E, n),
		shape: append([]int(nil), shape...),
	}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); callers must not retain independent references if
// they expect value semantics. It panics if len(data) does not match the
// shape's element count.
func FromSlice[E Elem](data []E, shape ...int) *Of[E] {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Of[E]{Data: data, shape: append([]int(nil), shape...)}
}

// checkShape validates a shape and returns its element count. It only
// reads shape — the panic formats a copy — so a variadic shape passed
// through it stays on the caller's stack.
func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Shape returns a copy of the tensor's shape.
func (t *Of[E]) Shape() []int { return append([]int(nil), t.shape...) }

// dims is the shape itself, for lookups that only read it (shaped).
func (t *Of[E]) dims() []int { return t.shape }

// Dim returns the extent of dimension i.
func (t *Of[E]) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Of[E]) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Of[E]) Len() int { return len(t.Data) }

// Clone returns a deep copy of the tensor.
func (t *Of[E]) Clone() *Of[E] {
	c := &Of[E]{
		Data:  make([]E, len(t.Data)),
		shape: append([]int(nil), t.shape...),
	}
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape. It panics if
// the element counts differ. The returned tensor aliases t's buffer.
func (t *Of[E]) Reshape(shape ...int) *Of[E] {
	n := checkShape(shape)
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.Data), shape, n))
	}
	return &Of[E]{Data: t.Data, shape: append([]int(nil), shape...)}
}

// At returns the element at the given multi-dimensional index.
func (t *Of[E]) At(idx ...int) E {
	return t.Data[t.offset(idx)]
}

// Set assigns v to the element at the given multi-dimensional index.
func (t *Of[E]) Set(v E, idx ...int) {
	t.Data[t.offset(idx)] = v
}

// offset converts a multi-dimensional index to a flat offset.
func (t *Of[E]) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong rank for shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Zero sets every element to 0.
func (t *Of[E]) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Of[E]) Fill(v E) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Add accumulates other into t element-wise. Shapes must have equal element
// counts (shape equality beyond length is not required, enabling flat
// parameter-vector arithmetic).
func (t *Of[E]) Add(other *Of[E]) {
	if len(t.Data) != len(other.Data) {
		panic(fmt.Sprintf("tensor: Add length mismatch %d vs %d", len(t.Data), len(other.Data)))
	}
	add(t.Data, other.Data)
}

// AddScaled accumulates alpha*other into t element-wise.
func (t *Of[E]) AddScaled(alpha E, other *Of[E]) {
	if len(t.Data) != len(other.Data) {
		panic(fmt.Sprintf("tensor: AddScaled length mismatch %d vs %d", len(t.Data), len(other.Data)))
	}
	axpy(t.Data, alpha, other.Data)
}

// Scale multiplies every element by alpha.
func (t *Of[E]) Scale(alpha E) {
	scale(t.Data, t.Data, alpha)
}

// CopyFrom copies other's elements into t. Lengths must match.
func (t *Of[E]) CopyFrom(other *Of[E]) {
	if len(t.Data) != len(other.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom length mismatch %d vs %d", len(t.Data), len(other.Data)))
	}
	copy(t.Data, other.Data)
}

// From64 fills t with src's elements rounded to E (a copy when E is
// float64). Lengths must match; shapes are the caller's contract (the nn
// backend always pairs like-shaped tensors).
func (t *Of[E]) From64(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: From64 length mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	if is64[E]() {
		copy(as64(t.Data), src.Data)
		return
	}
	narrow(as32(t.Data), src.Data)
}

// To64 widens t's elements into dst. Widening float32→float64 is exact,
// so a To64/From64 round trip returns the original float32 bits — the
// property the cached-evaluator identity tests rely on when the model runs
// on the float32 backend.
func (t *Of[E]) To64(dst *Tensor) {
	if len(t.Data) != len(dst.Data) {
		panic(fmt.Sprintf("tensor: To64 length mismatch %d vs %d", len(t.Data), len(dst.Data)))
	}
	if is64[E]() {
		copy(dst.Data, as64(t.Data))
		return
	}
	widen(dst.Data, as32(t.Data))
}

// Randn fills t with samples from N(0, std²) using rng.
func (t *Of[E]) Randn(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = E(rng.NormFloat64() * std)
	}
}

// Sum returns the sum of all elements.
func (t *Of[E]) Sum() E {
	var s E
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements, or 0 for an empty tensor.
func (t *Of[E]) Mean() E {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / E(len(t.Data))
}

// Std returns the population standard deviation of all elements, or 0 for
// tensors with fewer than two elements.
func (t *Of[E]) Std() E {
	if len(t.Data) < 2 {
		return 0
	}
	m := t.Mean()
	var ss E
	for _, v := range t.Data {
		d := v - m
		ss += E(d * d)
	}
	return E(math.Sqrt(float64(ss / E(len(t.Data)))))
}

// ZeroOutside writes src into dst with every value outside mu ± delta·sigma
// replaced by zero, and returns how many it replaced; dst may be src. This
// is the adjusting-weights clip (AW) of the defense and of the attacker that
// evades it. The product is written float64(delta*sigma) so that arm64
// computes the bounds amd64 does (no fused multiply-add).
func ZeroOutside(dst, src []float64, mu, sigma, delta float64) int {
	checkLens("ZeroOutside", len(dst), len(src))
	lo, hi := mu-float64(delta*sigma), mu+float64(delta*sigma)
	zeroed := 0
	for i, v := range src {
		if v < lo || v > hi {
			dst[i] = 0
			zeroed++
		} else {
			dst[i] = v
		}
	}
	return zeroed
}

// Equal reports whether t and other have identical shapes and all elements
// within tol of each other.
func (t *Of[E]) Equal(other *Of[E], tol float64) bool {
	if len(t.shape) != len(other.shape) {
		return false
	}
	for i, d := range t.shape {
		if other.shape[i] != d {
			return false
		}
	}
	for i, v := range t.Data {
		if math.Abs(float64(v-other.Data[i])) > tol {
			return false
		}
	}
	return true
}

// String renders a compact description, useful in test failures.
func (t *Of[E]) String() string {
	if len(t.Data) <= 8 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.Data)
	}
	return fmt.Sprintf("Tensor%v[%g %g ... %g]", t.shape, t.Data[0], t.Data[1], t.Data[len(t.Data)-1])
}
