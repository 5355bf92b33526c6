package tensor

import "fmt"

// T32 is the float32 sibling of Tensor: a dense row-major float32 array
// with an explicit shape. It exists for the opt-in float32 speed backend
// (DESIGN.md §13) and deliberately carries only the operations the nn
// float32 forward/backward paths need. Everything that crosses the
// precision boundary — FL aggregation, checkpoints, defense statistics —
// stays on *Tensor; From64/To64 are the only bridges.
//
// Go 1.21 (the module's floor) has no generic type aliases, so T32 is a
// distinct struct rather than Tensor[float32]; the numeric kernels are
// still shared with float64 through the generic functions in kernels.go.
type T32 struct {
	// Data holds the elements in row-major order, exposed for the same
	// reason Tensor.Data is.
	Data  []float32
	shape []int
}

// New32 returns a zero-filled float32 tensor with the given shape.
func New32(shape ...int) *T32 {
	n := checkShape(shape)
	return &T32{
		Data:  make([]float32, n),
		shape: append([]int(nil), shape...),
	}
}

// FromSlice32 wraps data in a T32 with the given shape. The slice is used
// directly (not copied), mirroring FromSlice.
func FromSlice32(data []float32, shape ...int) *T32 {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &T32{Data: data, shape: append([]int(nil), shape...)}
}

// Shape returns a copy of the tensor's shape.
func (t *T32) Shape() []int { return append([]int(nil), t.shape...) }

// Dim returns the extent of dimension i.
func (t *T32) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *T32) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *T32) Len() int { return len(t.Data) }

// Zero sets every element to zero.
func (t *T32) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Clone returns a deep copy of the tensor.
func (t *T32) Clone() *T32 {
	c := &T32{
		Data:  make([]float32, len(t.Data)),
		shape: append([]int(nil), t.shape...),
	}
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a T32 sharing t's data with a new shape, mirroring
// Tensor.Reshape. The returned tensor aliases t's buffer.
func (t *T32) Reshape(shape ...int) *T32 {
	n := checkShape(shape)
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.Data), shape, n))
	}
	return &T32{Data: t.Data, shape: append([]int(nil), shape...)}
}

// CopyFrom copies src's elements into t. Lengths must match.
func (t *T32) CopyFrom(src *T32) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom length mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	copy(t.Data, src.Data)
}

// From64 fills t by rounding src's float64 elements to float32. Lengths
// must match; shapes are the caller's contract (the nn backend always
// pairs like-shaped tensors).
func (t *T32) From64(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: From64 length mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	narrow(t.Data, src.Data)
}

// To64 widens t's elements into dst. Widening float32→float64 is exact,
// so a To64/From64 round trip returns the original float32 bits — the
// property the cached-evaluator identity tests rely on when the model runs
// on the float32 backend.
func (t *T32) To64(dst *Tensor) {
	if len(t.Data) != len(dst.Data) {
		panic(fmt.Sprintf("tensor: To64 length mismatch %d vs %d", len(t.Data), len(dst.Data)))
	}
	widen(dst.Data, t.Data)
}

// MatMulInto32 computes dst = a·b for float32 operands, through the same
// tiled kernels and row-blocking as MatMulInto. dst must be m×n.
func MatMulInto32(dst, a, b *T32) {
	m, k, n := checkMatMul32(a, b, "MatMul")
	if dst.Rank() != 2 || dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulInto32 dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	checkNoOverlap("MatMulInto32", dst.Data, a.Data, b.Data)
	dst.Zero()
	matmulInto(dst.Data, a.Data, b.Data, m, k, n)
}

// MatMulTransBInto32 computes dst = a·bᵀ for a (m×k) and b (n×k); every
// dst cell is overwritten.
func MatMulTransBInto32(dst, a, b *T32) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransB requires rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(0)
	if b.Dim(1) != k {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v × %vᵀ", a.shape, b.shape))
	}
	if dst.Rank() != 2 || dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto32 dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	checkNoOverlap("MatMulTransBInto32", dst.Data, a.Data, b.Data)
	matmulTransBInto(dst.Data, a.Data, b.Data, m, k, n)
}

// MatMulTransAInto32 computes dst = aᵀ·b for a (k×m) and b (k×n); dst is
// zeroed first because the kernel accumulates.
func MatMulTransAInto32(dst, a, b *T32) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransA requires rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	k, m := a.Dim(0), a.Dim(1)
	if b.Dim(0) != k {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimension mismatch %vᵀ × %v", a.shape, b.shape))
	}
	n := b.Dim(1)
	if dst.Rank() != 2 || dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulTransAInto32 dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	checkNoOverlap("MatMulTransAInto32", dst.Data, a.Data, b.Data)
	dst.Zero()
	matmulTransAInto(dst.Data, a.Data, b.Data, k, m, n)
}

func checkMatMul32(a, b *T32, op string) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 operands, got %v and %v", op, a.shape, b.shape))
	}
	m, k = a.Dim(0), a.Dim(1)
	if b.Dim(0) != k {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v × %v", op, a.shape, b.shape))
	}
	return m, k, b.Dim(1)
}

// Arena32 is the float32 sibling of Arena: a shape-keyed pool of reusable
// float32 scratch tensors with the same ownership rules (single-goroutine,
// recycled buffers keep contents, leading-dimension variants of a shape
// share one backing, buffers valid until the next Get with the same slot
// and trailing shape). The zero value is ready to use.
type Arena32 struct {
	m   map[arenaKey]*T32
	fam map[arenaKey][]float32
}

// Get returns the arena's buffer for (slot, shape), allocating a zeroed
// T32 on first use. A warm Get is allocation-free.
func (a *Arena32) Get(slot string, shape ...int) *T32 {
	if len(shape) > maxArenaRank {
		panic(fmt.Sprintf("tensor: Arena32.Get rank %d exceeds %d", len(shape), maxArenaRank))
	}
	k := arenaKey{slot: slot, rank: len(shape)}
	copy(k.dims[:], shape)
	if t, ok := a.m[k]; ok {
		return t
	}
	return a.miss(k)
}

// GetIndexed returns the arena's buffer for (slot, idx, shape), mirroring
// Arena.GetIndexed.
func (a *Arena32) GetIndexed(slot string, idx int, shape ...int) *T32 {
	if len(shape) > maxArenaRank {
		panic(fmt.Sprintf("tensor: Arena32.GetIndexed rank %d exceeds %d", len(shape), maxArenaRank))
	}
	k := arenaKey{slot: slot, idx: idx, rank: len(shape)}
	copy(k.dims[:], shape)
	if t, ok := a.m[k]; ok {
		return t
	}
	return a.miss(k)
}

// GetLike returns the arena's buffer with exactly t's shape, reading the
// shape in place so the warm path is allocation-free.
func (a *Arena32) GetLike(slot string, t *T32) *T32 {
	if len(t.shape) > maxArenaRank {
		panic(fmt.Sprintf("tensor: Arena32.GetLike rank %d exceeds %d", len(t.shape), maxArenaRank))
	}
	k := arenaKey{slot: slot, rank: len(t.shape)}
	copy(k.dims[:], t.shape)
	if b, ok := a.m[k]; ok {
		return b
	}
	return a.miss(k)
}

// GetLike64 returns the arena's float32 buffer shaped like the float64
// tensor t — the allocation-free way to stage a conversion at the
// precision boundary.
func (a *Arena32) GetLike64(slot string, t *Tensor) *T32 {
	if len(t.shape) > maxArenaRank {
		panic(fmt.Sprintf("tensor: Arena32.GetLike64 rank %d exceeds %d", len(t.shape), maxArenaRank))
	}
	k := arenaKey{slot: slot, rank: len(t.shape)}
	copy(k.dims[:], t.shape)
	if b, ok := a.m[k]; ok {
		return b
	}
	return a.miss(k)
}

// GetIndexedLike64 is GetLike64 with an integer index, mirroring
// Arena.GetIndexed.
func (a *Arena32) GetIndexedLike64(slot string, idx int, t *Tensor) *T32 {
	if len(t.shape) > maxArenaRank {
		panic(fmt.Sprintf("tensor: Arena32.GetIndexedLike64 rank %d exceeds %d", len(t.shape), maxArenaRank))
	}
	k := arenaKey{slot: slot, idx: idx, rank: len(t.shape)}
	copy(k.dims[:], t.shape)
	if b, ok := a.m[k]; ok {
		return b
	}
	return a.miss(k)
}

// miss registers the buffer for key k, mirroring Arena.miss.
func (a *Arena32) miss(k arenaKey) *T32 {
	if a.m == nil {
		a.m = make(map[arenaKey]*T32)
		a.fam = make(map[arenaKey][]float32)
	}
	t := FromSlice32(familyBacking(a.fam, k), k.dims[:k.rank]...)
	a.m[k] = t
	return t
}

// Reset drops every cached buffer.
func (a *Arena32) Reset() { a.m, a.fam = nil, nil }

// GetLike32 returns the float64 arena's buffer shaped like the float32
// tensor t — the other direction of Arena32.GetLike64, used when widening
// results back across the precision boundary without allocating.
func (a *Arena) GetLike32(slot string, t *T32) *Tensor {
	if len(t.shape) > maxArenaRank {
		panic(fmt.Sprintf("tensor: Arena.GetLike32 rank %d exceeds %d", len(t.shape), maxArenaRank))
	}
	k := arenaKey{slot: slot, rank: len(t.shape)}
	copy(k.dims[:], t.shape)
	if b, ok := a.m[k]; ok {
		return b
	}
	return a.miss(k)
}

// GetIndexedLike32 is GetLike32 with an integer index, mirroring
// Arena.GetIndexed.
func (a *Arena) GetIndexedLike32(slot string, idx int, t *T32) *Tensor {
	if len(t.shape) > maxArenaRank {
		panic(fmt.Sprintf("tensor: Arena.GetIndexedLike32 rank %d exceeds %d", len(t.shape), maxArenaRank))
	}
	k := arenaKey{slot: slot, idx: idx, rank: len(t.shape)}
	copy(k.dims[:], t.shape)
	if b, ok := a.m[k]; ok {
		return b
	}
	return a.miss(k)
}
