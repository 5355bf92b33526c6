package tensor

import (
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// TestMatMulTransBIntoMatchesAllocating pins the in-place kernel's
// bit-identity contract against the allocating variant across shapes large
// enough to cross the parallel cutoff and worker counts 1, 2 and 8. The
// destination is pre-filled with garbage: every cell must be overwritten.
func TestMatMulTransBIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 4}, {64, 96, 80}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randMat(rng, m, k)
		b := randMat(rng, n, k)
		want := MatMulTransB(a, b)
		for _, w := range []int{1, 2, 8} {
			prev := parallel.SetWorkers(w)
			dst := New(m, n)
			dst.Fill(99)
			MatMulTransBInto(dst, a, b)
			parallel.SetWorkers(prev)
			if !dst.Equal(want, 0) {
				t.Fatalf("m=%d k=%d n=%d workers=%d: MatMulTransBInto not bit-identical", m, k, n, w)
			}
		}
	}
}

// TestMatMulTransAIntoMatchesAllocating is the aᵀ·b sibling. The kernel
// accumulates, so the pre-filled destination also checks the implicit Zero.
func TestMatMulTransAIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, dims := range [][3]int{{1, 1, 1}, {4, 6, 3}, {80, 64, 96}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randMat(rng, k, m)
		b := randMat(rng, k, n)
		want := MatMulTransA(a, b)
		for _, w := range []int{1, 2, 8} {
			prev := parallel.SetWorkers(w)
			dst := New(m, n)
			dst.Fill(99)
			MatMulTransAInto(dst, a, b)
			parallel.SetWorkers(prev)
			if !dst.Equal(want, 0) {
				t.Fatalf("m=%d k=%d n=%d workers=%d: MatMulTransAInto not bit-identical", m, k, n, w)
			}
		}
	}
}

func TestMatMulIntoBadDstPanics(t *testing.T) {
	// Operands carved out of one backing array: dst shares its last cell
	// with the first cell of the operand it is paired with.
	shared := make([]float64, 16)
	dst64, tail64 := FromSlice(shared[0:4], 2, 2), FromSlice(shared[3:7], 2, 2)
	shared32 := make([]float32, 16)
	dst32, tail32 := FromSlice(shared32[0:4], 2, 2), FromSlice(shared32[3:7], 2, 2)
	sq, sq32 := New(2, 2), NewOf[float32](2, 2)

	for name, f := range map[string]func(){
		"MatMulInto shape":       func() { MatMulInto(New(2, 3), New(2, 2), New(2, 2)) },
		"MatMulTransBInto shape": func() { MatMulTransBInto(New(3, 2), New(2, 4), New(3, 4)) },
		"MatMulTransAInto shape": func() { MatMulTransAInto(New(2, 2), New(4, 2), New(4, 3)) },

		"MatMulInto dst is a":                 func() { MatMulInto(sq, sq, New(2, 2)) },
		"MatMulInto dst is b":                 func() { MatMulInto(sq, New(2, 2), sq) },
		"MatMulInto dst overlaps a":           func() { MatMulInto(dst64, tail64, New(2, 2)) },
		"MatMulTransBInto dst is a":           func() { MatMulTransBInto(sq, sq, New(2, 2)) },
		"MatMulTransBInto overlaps b":         func() { MatMulTransBInto(dst64, New(2, 2), tail64) },
		"MatMulTransAInto dst is b":           func() { MatMulTransAInto(sq, New(2, 2), sq) },
		"MatMulTransAInto overlaps a":         func() { MatMulTransAInto(dst64, tail64, New(2, 2)) },
		"MatMulInto float32 dst is a":         func() { MatMulInto(sq32, sq32, NewOf[float32](2, 2)) },
		"MatMulInto float32 overlaps b":       func() { MatMulInto(dst32, NewOf[float32](2, 2), tail32) },
		"MatMulTransBInto float32 dst is b":   func() { MatMulTransBInto(sq32, NewOf[float32](2, 2), sq32) },
		"MatMulTransBInto float32 overlaps a": func() { MatMulTransBInto(dst32, tail32, NewOf[float32](2, 2)) },
		"MatMulTransAInto float32 dst is a":   func() { MatMulTransAInto(sq32, sq32, NewOf[float32](2, 2)) },
		"MatMulTransAInto float32 overlaps b": func() { MatMulTransAInto(dst32, NewOf[float32](2, 2), tail32) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: did not panic", name)
				}
			}()
			f()
		}()
	}

	// Adjacent but disjoint ranges of one backing array are legal, and a
	// and b may alias each other freely.
	MatMulInto(dst64, FromSlice(shared[4:8], 2, 2), FromSlice(shared[4:8], 2, 2))
	MatMulTransAInto(dst32, FromSlice(shared32[4:8], 2, 2), FromSlice(shared32[8:12], 2, 2))
}
