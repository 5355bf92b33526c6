//go:build !race

package tensor

import (
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// TestMatMulIntoKernelsAllocFree is the allocation-regression gate for the
// in-place matmul family: with a single worker (the serial kernels; the
// parallel path inherently allocates its goroutines) and pre-sized
// destinations, a call performs zero heap allocations — shape and overlap
// checks, kernel dispatch and (on AVX2 hosts) the assembly calls
// included, in both precisions. Guarded by !race
// because race instrumentation adds allocations of its own.
func TestMatMulIntoKernelsAllocFree(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	rng := rand.New(rand.NewSource(41))
	const m, k, n = 16, 144, 64
	a := randMat(rng, m, k)
	b := randMat(rng, k, n)
	bT := randMat(rng, n, k)
	aT := randMat(rng, k, m)
	dst := New(m, n)
	a32, b32, bT32, aT32, dst32 := New32(m, k), New32(k, n), New32(n, k), New32(k, m), New32(m, n)
	a32.From64(a)
	b32.From64(b)
	bT32.From64(bT)
	aT32.From64(aT)

	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"MatMulInto", func() { MatMulInto(dst, a, b) }},
		{"MatMulTransBInto", func() { MatMulTransBInto(dst, a, bT) }},
		{"MatMulTransAInto", func() { MatMulTransAInto(dst, aT, b) }},
		{"MatMulInto32", func() { MatMulInto32(dst32, a32, b32) }},
		{"MatMulTransBInto32", func() { MatMulTransBInto32(dst32, a32, bT32) }},
		{"MatMulTransAInto32", func() { MatMulTransAInto32(dst32, aT32, b32) }},
	} {
		if allocs := testing.AllocsPerRun(20, tc.f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestArenaGetAllocFreeWhenWarm gates the arena's core promise: a hit on an
// existing (slot, shape) key allocates nothing, including the variadic
// shape argument.
func TestArenaGetAllocFreeWhenWarm(t *testing.T) {
	var a Arena
	a.Get("x", 32, 1, 16, 16) // warm the key
	proto := New(32, 10)
	a.GetLike("y", proto)
	if allocs := testing.AllocsPerRun(50, func() { a.Get("x", 32, 1, 16, 16) }); allocs != 0 {
		t.Errorf("warm Arena.Get: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { a.GetLike("y", proto) }); allocs != 0 {
		t.Errorf("warm Arena.GetLike: %v allocs/op, want 0", allocs)
	}
}
