package tensor

import "fmt"

// maxArenaRank bounds the tensor rank an Arena can key on. Every tensor in
// the training stack is rank 1–4 (NCHW batches at most).
const maxArenaRank = 4

// arenaKey identifies one scratch buffer: a caller-chosen slot name, an
// optional integer index (batch-keyed caches hold one buffer per batch
// under a single slot name) plus the exact shape. Keeping the key a
// comparable value type makes the map lookup allocation-free, which is the
// whole point of the arena.
type arenaKey struct {
	slot string
	idx  int
	rank int
	dims [maxArenaRank]int
}

// ArenaOf is a shape-keyed pool of reusable scratch tensors of E. Get
// returns the same buffer for the same (slot, shape) pair on every call,
// allocating only on first use, so a steady-state training loop that
// routes its temporaries through an arena performs zero heap allocations
// per step after warm-up.
//
// Buffers for distinct shapes coexist (a partial tail batch does not evict
// the full-batch buffer), and the slot string separates same-shaped buffers
// that must not alias (e.g. a matmul destination and its gradient scratch).
// Shapes of rank 2 and up that differ only in their leading dimension — the
// batch, everywhere in the training stack — form a family that shares one
// backing: a tail batch first asked for after the full batch is a second
// header over a prefix of the full batch's memory, not a second buffer.
//
// Ownership rules (see DESIGN.md §8):
//   - An arena is single-goroutine state, exactly like the layer that owns
//     it. Concurrent workers must each own their own arena (or per-block
//     scratch), mirroring how the conv forward pass hands every worker
//     block its own buffers.
//   - Get does not zero recycled buffers; callers that need zeroed storage
//     call Zero explicitly (freshly allocated buffers are zero-filled).
//   - A buffer is valid until the next Get with the same slot (and index)
//     and the same trailing shape, whatever its leading dimension; callers
//     must not retain it across steps, nor hold two leading-dimension
//     variants of one slot at once.
//
// The zero value is ready to use.
type ArenaOf[E Elem] struct {
	m map[arenaKey]*Of[E]
	// fam maps a family — a rank ≥ 2 key with its leading dimension blanked —
	// to the largest backing allocated for it so far.
	fam map[arenaKey][]E
}

// Arena is the float64 arena.
type Arena = ArenaOf[float64]

// shaped is a tensor of either element type, as far as a lookup keyed on
// its shape needs it: GetLike stages a conversion at the precision boundary
// without allocating, in either direction.
type shaped interface{ dims() []int }

// Get returns the arena's buffer for (slot, shape), allocating a zeroed
// tensor on first use. Recycled buffers keep their previous contents.
//
// The shape slice is only read, never retained: the miss path rebuilds the
// shape from the comparable key, so the caller's variadic argument does not
// escape and a warm Get is allocation-free (the gate in alloc_test.go pins
// this).
func (a *ArenaOf[E]) Get(slot string, shape ...int) *Of[E] {
	return a.lookup(slot, 0, shape)
}

// GetLike returns the arena's buffer with exactly t's shape — t may be of
// either element type — allocating a zeroed tensor on first use. Unlike
// Get(slot, t.Shape()...) it reads the shape in place, keeping the warm
// path allocation-free.
func (a *ArenaOf[E]) GetLike(slot string, t shaped) *Of[E] {
	return a.lookup(slot, 0, t.dims())
}

// GetIndexedLike returns the arena's buffer for (slot, idx) with exactly
// t's shape, allocating a zeroed tensor on first use. The integer index
// distinguishes same-shaped buffers under one slot name without the caller
// having to mint per-index slot strings (which would allocate on every
// lookup): a batch-keyed activation cache holds batch b at
// GetIndexedLike("act", b, x).
func (a *ArenaOf[E]) GetIndexedLike(slot string, idx int, t shaped) *Of[E] {
	return a.lookup(slot, idx, t.dims())
}

// lookup is every Get: the buffer for (slot, idx, shape).
func (a *ArenaOf[E]) lookup(slot string, idx int, shape []int) *Of[E] {
	if len(shape) > maxArenaRank {
		panic(fmt.Sprintf("tensor: arena rank %d exceeds %d", len(shape), maxArenaRank))
	}
	k := arenaKey{slot: slot, idx: idx, rank: len(shape)}
	copy(k.dims[:], shape)
	if t, ok := a.m[k]; ok {
		return t
	}
	return a.miss(k)
}

// miss registers the buffer for key k (the cold path of lookup): over its
// family's backing when that is large enough, else over a new one.
func (a *ArenaOf[E]) miss(k arenaKey) *Of[E] {
	if a.m == nil {
		a.m = make(map[arenaKey]*Of[E])
		a.fam = make(map[arenaKey][]E)
	}
	t := FromSlice(familyBacking(a.fam, k), k.dims[:k.rank]...)
	a.m[k] = t
	return t
}

// familyBacking returns zero-filled storage for key k. A rank ≥ 2 key is
// served from a prefix of its family's largest backing when that is long
// enough; otherwise the storage is new and becomes the family's largest (a
// smaller backing allocated earlier stays with the buffers that have it).
// Rank-1 keys have no trailing shape to share a family on.
func familyBacking[E Elem](fam map[arenaKey][]E, k arenaKey) []E {
	n := checkShape(k.dims[:k.rank])
	if k.rank < 2 {
		return make([]E, n)
	}
	fk := k
	fk.dims[0] = 0
	if big := fam[fk]; len(big) >= n {
		clear(big[:n])
		return big[:n:n]
	}
	data := make([]E, n)
	fam[fk] = data
	return data
}

// EnsureShape returns t when it already has exactly the wanted shape, and a
// fresh zeroed tensor otherwise (including t == nil). It is the single-slot
// sibling of Arena.Get for call sites whose scratch shape only changes when
// the batch geometry does. Like Arena.Get, the shape slice is only read, so
// the reuse path is allocation-free even with an inline variadic argument.
func EnsureShape(t *Tensor, shape ...int) *Tensor {
	if t != nil && len(t.shape) == len(shape) {
		same := true
		for i, d := range shape {
			if t.shape[i] != d {
				same = false
				break
			}
		}
		if same {
			return t
		}
	}
	if len(shape) <= maxArenaRank {
		k := arenaKey{rank: len(shape)}
		copy(k.dims[:], shape)
		return newFromKey(k)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return New(s...)
}

// newFromKey is the cold allocation path of EnsureShape, separated so the
// caller's shape argument does not escape.
func newFromKey(k arenaKey) *Tensor { return New(k.dims[:k.rank]...) }
