// Package tensor implements the dense numeric arrays underpinning the
// fedcleanse neural-network stack. Tensors are row-major float64 buffers
// with an explicit shape. The package is deliberately small: it provides
// exactly the operations the CNN layers in internal/nn need (matrix
// multiplication, im2col, element-wise arithmetic, reductions and weight
// statistics) with no external dependencies.
//
// The hot loops have two forms that give the same bits: pure Go, and on
// amd64 CPUs with AVX2 the assembly of gemm_amd64.s (the three tiled
// matmuls, DESIGN.md §17) and vec_amd64.s (the element-wise passes of
// vec.go: ReLU, bias and gradient adds, axpy, precision conversions,
// BatchNorm's normalize and dx rows, DESIGN.md §18). CPUID picks at
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

// Tensor is a dense row-major array of float64 values.
//
// The zero value is an empty tensor. Use New or FromSlice to create a
// tensor with a shape.
type Tensor struct {
	// Data holds the elements in row-major order. Exposed so hot loops in
	// internal/nn can iterate without bounds-checked accessor calls.
	Data []float64
	// shape holds the extent of each dimension.
	shape []int
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative or the shape is empty.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{
		Data:  make([]float64, n),
		shape: append([]int(nil), shape...),
	}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); callers must not retain independent references if
// they expect value semantics. It panics if len(data) does not match the
// shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

// checkShape validates a shape and returns its element count.
func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dim returns the extent of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{
		Data:  make([]float64, len(t.Data)),
		shape: append([]int(nil), t.shape...),
	}
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape. It panics if
// the element counts differ. The returned tensor aliases t's buffer.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.Data), shape, n))
	}
	return &Tensor{Data: t.Data, shape: append([]int(nil), shape...)}
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 {
	return t.Data[t.offset(idx)]
}

// Set assigns v to the element at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

// offset converts a multi-dimensional index to a flat offset.
func (t *Tensor) offset(idx []int) int {
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
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Add accumulates other into t element-wise. Shapes must have equal element
// counts (shape equality beyond length is not required, enabling flat
// parameter-vector arithmetic).
func (t *Tensor) Add(other *Tensor) {
	if len(t.Data) != len(other.Data) {
		panic(fmt.Sprintf("tensor: Add length mismatch %d vs %d", len(t.Data), len(other.Data)))
	}
	add(t.Data, other.Data)
}

// AddScaled accumulates alpha*other into t element-wise.
func (t *Tensor) AddScaled(alpha float64, other *Tensor) {
	if len(t.Data) != len(other.Data) {
		panic(fmt.Sprintf("tensor: AddScaled length mismatch %d vs %d", len(t.Data), len(other.Data)))
	}
	axpy(t.Data, alpha, other.Data)
}

// Sub subtracts other from t element-wise.
func (t *Tensor) Sub(other *Tensor) {
	if len(t.Data) != len(other.Data) {
		panic(fmt.Sprintf("tensor: Sub length mismatch %d vs %d", len(t.Data), len(other.Data)))
	}
	for i, v := range other.Data {
		t.Data[i] -= v
	}
}

// Scale multiplies every element by alpha.
func (t *Tensor) Scale(alpha float64) {
	scale(t.Data, t.Data, alpha)
}

// Mul multiplies t by other element-wise (Hadamard product).
func (t *Tensor) Mul(other *Tensor) {
	if len(t.Data) != len(other.Data) {
		panic(fmt.Sprintf("tensor: Mul length mismatch %d vs %d", len(t.Data), len(other.Data)))
	}
	for i, v := range other.Data {
		t.Data[i] *= v
	}
}

// CopyFrom copies other's elements into t. Lengths must match.
func (t *Tensor) CopyFrom(other *Tensor) {
	if len(t.Data) != len(other.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom length mismatch %d vs %d", len(t.Data), len(other.Data)))
	}
	copy(t.Data, other.Data)
}

// Randn fills t with samples from N(0, std²) using rng.
func (t *Tensor) Randn(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements, or 0 for an empty tensor.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Std returns the population standard deviation of all elements, or 0 for
// tensors with fewer than two elements.
func (t *Tensor) Std() float64 {
	if len(t.Data) < 2 {
		return 0
	}
	m := t.Mean()
	ss := 0.0
	for _, v := range t.Data {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(t.Data)))
}

// Max returns the maximum element and its flat index. It panics on an empty
// tensor.
func (t *Tensor) Max() (float64, int) {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	best, bestIdx := t.Data[0], 0
	for i, v := range t.Data[1:] {
		if v > best {
			best, bestIdx = v, i+1
		}
	}
	return best, bestIdx
}

// Norm2 returns the Euclidean (L2) norm of the tensor viewed as a flat
// vector.
func (t *Tensor) Norm2() float64 {
	ss := 0.0
	for _, v := range t.Data {
		ss += v * v
	}
	return math.Sqrt(ss)
}

// Norm1 returns the L1 norm (sum of absolute values).
func (t *Tensor) Norm1() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += math.Abs(v)
	}
	return s
}

// Clamp limits every element to the interval [lo, hi].
func (t *Tensor) Clamp(lo, hi float64) {
	for i, v := range t.Data {
		if v < lo {
			t.Data[i] = lo
		} else if v > hi {
			t.Data[i] = hi
		}
	}
}

// Equal reports whether t and other have identical shapes and all elements
// within tol of each other.
func (t *Tensor) Equal(other *Tensor, tol float64) bool {
	if len(t.shape) != len(other.shape) {
		return false
	}
	for i, d := range t.shape {
		if other.shape[i] != d {
			return false
		}
	}
	for i, v := range t.Data {
		if math.Abs(v-other.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a compact description, useful in test failures.
func (t *Tensor) String() string {
	if len(t.Data) <= 8 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.Data)
	}
	return fmt.Sprintf("Tensor%v[%g %g ... %g]", t.shape, t.Data[0], t.Data[1], t.Data[len(t.Data)-1])
}
