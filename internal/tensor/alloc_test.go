//go:build !race

package tensor

import (
	"math/rand"
	"runtime"
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
	a32, b32, bT32, aT32, dst32 := NewOf[float32](m, k), NewOf[float32](k, n), NewOf[float32](n, k), NewOf[float32](k, m), NewOf[float32](m, n)
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
		{"MatMulInto float32", func() { MatMulInto(dst32, a32, b32) }},
		{"MatMulTransBInto float32", func() { MatMulTransBInto(dst32, a32, bT32) }},
		{"MatMulTransAInto float32", func() { MatMulTransAInto(dst32, aT32, b32) }},
	} {
		if allocs := testing.AllocsPerRun(20, tc.f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestVecAndTableEntryPointsAllocFree extends the gate to the element-wise
// passes (vec.go) and the table im2col/col2im: generic dispatch, the
// unsafe views and the assembly calls must not put anything on the heap,
// in either precision.
func TestVecAndTableEntryPointsAllocFree(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(42))
	a, b, c := randSlice[float64](rng, n), randSlice[float64](rng, n), randSlice[float64](rng, n)
	a32, b32, c32 := randSlice[float32](rng, n), randSlice[float32](rng, n), randSlice[float32](rng, n)
	t64, t32 := FromSlice(a, n), FromSlice(a32, n)
	d := ConvDims{C: 4, H: 4, W: 4, K: 3, Stride: 1, Pad: 1}
	tab := ConvIndexFor(d)
	img, img32 := randSlice[float64](rng, d.C*d.H*d.W), randSlice[float32](rng, d.C*d.H*d.W)
	col, col32 := make([]float64, d.C*d.K*d.K*d.OutH()*d.OutW()), make([]float32, d.C*d.K*d.K*d.OutH()*d.OutW())
	stage, stage32 := make([]float64, tab.StageLen()), make([]float32, tab.StageLen())

	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Relu", func() { Relu(a, b); Relu(a32, b32) }},
		{"ReluBackward", func() { ReluBackward(a, b, c); ReluBackward(a32, b32, c32) }},
		{"Add", func() { Add(a, b); Add(a32, b32) }},
		{"AddScalar", func() { AddScalar(a, b, 0.5); AddScalar(a32, b32, 0.5) }},
		{"Axpy", func() { Axpy(a, 0.5, b) }},
		{"Scale", func() { Scale(a, b, 0.5); Scale(a32, b32, 0.5) }},
		{"AddWiden", func() { AddWiden(a, b32) }},
		{"From64", func() { t32.From64(t64) }},
		{"To64", func() { t32.To64(t64) }},
		{"NormAffine", func() { NormAffine(a, c, b, 0.1, 2, 1.5, 0.2); NormAffine(a32, nil, b32, 0.1, 2, 1.5, 0.2) }},
		{"NormBackward", func() { NormBackward(a, b, c, 1, 2, 3, 4, 5); NormBackward(a32, b32, c32, 1, 2, 3, 4, 5) }},
		{"Im2ColIndexed", func() { Im2ColIndexed(tab, img, stage, col); Im2ColIndexed(tab, img32, stage32, col32) }},
		{"Col2ImIndexed", func() { Col2ImIndexed(tab, col, stage, img); Col2ImIndexed(tab, col32, stage32, img32) }},
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

// TestArenaTailBatchAllocBudget: a tail batch met after the full batch costs
// its header and map entries, not a buffer — 1.3 MB here when every shape
// had its own.
func TestArenaTailBatchAllocBudget(t *testing.T) {
	var a Arena
	var a32 ArenaOf[float32]
	a.Get("out", 20, 16, 16, 16)
	a32.Get("out", 20, 16, 16, 16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a.Get("out", 14, 16, 16, 16)
	a32.Get("out", 14, 16, 16, 16)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2048 {
		t.Errorf("tail batches after full ones allocate %d bytes, budget 2048", got)
	}
}
