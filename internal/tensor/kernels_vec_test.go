package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The vectorized kernels (DESIGN.md §3) against the pure-Go loops, bit for
// bit, on the shapes a vector kernel gets wrong first: every column count
// from zero to one past two vectors, every operand start offset inside a
// vector (so loads and stores begin unaligned), row counts on both sides
// of the 4-row group, and panel depths around the transpose chunk and the
// KC edge. Each operand lives inside a larger backing slice with NaN
// canaries directly before and after it: an over-read turns a result cell
// into NaN that the Go loops did not produce, an over-write changes a
// canary. On hosts without AVX2 (and off amd64) both sides are the Go
// loops and the test degenerates to checking the canaries.

// canary returns the NaN the padding cells hold; its payload distinguishes
// it from any NaN arithmetic produces.
func canary[E Elem]() E {
	var e E
	if _, ok := any(e).(float32); ok {
		v := math.Float32frombits(0x7fc0beef)
		return E(v)
	}
	return E(math.Float64frombits(0x7ff80000deadbeef))
}

// bitsOf is the comparison key of a cell: float32 widens exactly, so one
// float64 bit pattern serves both precisions (as in diffIdx).
func bitsOf[E Elem](v E) uint64 { return math.Float64bits(float64(v)) }

// padded returns a size-element operand starting off+1 cells into a fresh
// backing slice whose every other cell is the canary.
func padded[E Elem](size, off, lanes int) (backing, operand []E) {
	backing = make([]E, off+1+size+1+lanes)
	c := canary[E]()
	for i := range backing {
		backing[i] = c
	}
	return backing, backing[off+1 : off+1+size : off+1+size]
}

// specials are the values the finite-input contract must still get right
// bit for bit: signed zeros and subnormals. ±Inf is outside the contract
// (Inf·0 is NaN on both paths) and drawn only when asked for.
func specials[E Elem](withInf bool) []E {
	var e E
	tiny := E(math.SmallestNonzeroFloat64)
	sub := E(1e-310)
	if _, ok := any(e).(float32); ok {
		tiny = E(math.SmallestNonzeroFloat32)
		sub = E(1e-40)
	}
	negZero := E(math.Copysign(0, -1))
	s := []E{0, negZero, tiny, -tiny, sub, -sub}
	if withInf {
		s = append(s, E(math.Inf(1)), E(math.Inf(-1)))
	}
	return s
}

func fillOperand[E Elem](rng *rand.Rand, s []E, sp []E) {
	for i := range s {
		if rng.Intn(8) == 0 {
			s[i] = sp[rng.Intn(len(sp))]
		} else {
			s[i] = E(rng.NormFloat64())
		}
	}
}

// sameCells reports the first cell whose bits differ; cells that are NaN
// on both sides compare equal.
func sameCells[E Elem](got, want []E) (int, bool) {
	for i := range got {
		if got[i] != got[i] && want[i] != want[i] {
			continue
		}
		if bitsOf(got[i]) != bitsOf(want[i]) {
			return i, false
		}
	}
	return 0, true
}

func checkCanaries[E Elem](t *testing.T, what string, ctx func() string, backing, operand []E, off int) {
	t.Helper()
	c := bitsOf(canary[E]())
	for i, v := range backing {
		if i > off && i <= off+len(operand) {
			continue
		}
		if bitsOf(v) != c {
			t.Fatalf("%s %s: padding cell %d (operand spans [%d,%d]) was overwritten with %v", what, ctx(), i, off+1, off+len(operand), v)
		}
	}
}

func checkVectorKernels[E Elem](t *testing.T, lanes, kc int) {
	rng := rand.New(rand.NewSource(int64(lanes)))
	ks := []int{1, 2, 3, 4, 5, 7, kc - 1, kc + 1, kc + 3}
	for _, m := range []int{1, 3, 4, 5} {
		for n := 0; n <= 2*lanes+1; n++ {
			for off := 0; off < lanes; off++ {
				for ki, k := range ks {
					sp := specials[E]((n+off+ki)%4 == 0)
					ctx := func() string { return fmt.Sprintf("m=%d k=%d n=%d offset=%d", m, k, n, off) }

					// a as m×k (a·b, a·bᵀ) and k×m (aᵀ·b) is the same
					// number of cells; b likewise as k×n and n×k.
					aBack, a := padded[E](m*k, off, lanes)
					bBack, b := padded[E](k*n, off, lanes)
					fillOperand(rng, a, sp)
					fillOperand(rng, b, sp)
					aCopy := append([]E(nil), a...)
					bCopy := append([]E(nil), b...)
					want := make([]E, m*n)

					// The accumulating kernels start from a zeroed dst;
					// a·bᵀ overwrites, so it starts from garbage.
					for _, kern := range []struct {
						name string
						init E
						vec  func(dst []E)
						gold func(dst []E)
					}{
						{"matmulTiled", 0,
							func(dst []E) { matmulTiled(dst, a, b, 0, m, k, n) },
							func(dst []E) { matmulTiledGo(dst, a, b, 0, m, k, n) }},
						{"matmulTransBTiled", 99,
							func(dst []E) { matmulTransBTiled(dst, a, b, 0, m, k, n) },
							func(dst []E) { matmulTransBTiledGo(dst, a, b, 0, m, k, n) }},
						{"matmulTransATiled", 0,
							func(dst []E) { matmulTransATiled(dst, a, b, 0, m, k, m, n) },
							func(dst []E) { matmulTransATiledGo(dst, a, b, 0, m, k, m, n) }},
					} {
						dBack, dst := padded[E](m*n, off, lanes)
						for i := range dst {
							dst[i], want[i] = kern.init, kern.init
						}
						kern.vec(dst)
						kern.gold(want)
						if i, ok := sameCells(dst, want); !ok {
							t.Fatalf("%s %s: cell %d = %v, Go loops %v", kern.name, ctx(), i, dst[i], want[i])
						}
						checkCanaries(t, kern.name+" dst", ctx, dBack, dst, off)
					}
					checkCanaries(t, "a", ctx, aBack, a, off)
					checkCanaries(t, "b", ctx, bBack, b, off)
					if i, ok := sameCells(a, aCopy); !ok {
						t.Fatalf("%s: a[%d] was modified", ctx(), i)
					}
					if i, ok := sameCells(b, bCopy); !ok {
						t.Fatalf("%s: b[%d] was modified", ctx(), i)
					}
				}
			}
		}
	}
}

func TestVectorKernelsMatchGoLoopsFloat64(t *testing.T) { checkVectorKernels[float64](t, 4, kc64) }
func TestVectorKernelsMatchGoLoopsFloat32(t *testing.T) { checkVectorKernels[float32](t, 8, kc32) }
