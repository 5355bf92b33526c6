package tensor

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// The tiled kernels are only allowed to reorder which output cells are
// computed when — never the order of additions within a cell — so for
// finite inputs they must match the pre-tile reference kernels bit for
// bit, in both precisions, with or without the sparsity the reference
// kernel's `av == 0` skip exploits. These tests pin that contract on
// shapes chosen to straddle every blocking boundary (the 4-row unroll, the
// KC panel edge, the NC column edge) plus the degenerate vector shapes.

// kernelShapes crosses the unroll width (4), the float64 panel extents
// (kc64=128, nc64=256) and the float32 extents (kc32=256, nc32=512) with
// off-by-one neighbours, plus degenerate 1×k×1 and m×1×n shapes.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{1, 300, 1},
	{5, 1, 9},
	{3, 5, 7},
	{4, 4, 4},
	{7, 129, 3},
	{8, 128, 256},
	{9, 127, 255},
	{16, 144, 64},
	{33, 257, 31},
	{130, 129, 258},
	{2, 513, 5},
}

// zeroChannels zeroes every ch-th row of an m×k matrix, mimicking what
// pruning a unit does to the weight and activation matrices (whole
// channels become exactly +0), so the reference kernel's sparsity skip
// actually fires while the tiled kernel multiplies through.
func zeroChannels[E Elem](data []E, m, k, ch int) {
	for i := 0; i < m; i += ch {
		row := data[i*k : (i+1)*k]
		for j := range row {
			row[j] = 0
		}
	}
}

func randSlice[E Elem](rng *rand.Rand, n int) []E {
	s := make([]E, n)
	for i := range s {
		s[i] = E(rng.NormFloat64())
	}
	return s
}

// checkKernelsMatchRef runs all three tiled kernels against their
// reference counterparts on the given operands and fails on any bit
// difference. a64 is m×k (and reinterpreted as k×m for TransA via a
// separately generated operand), b is sized per kernel.
func checkKernelsMatchRef[E Elem](t *testing.T, rng *rand.Rand, m, k, n int, sparse bool) {
	t.Helper()
	a := randSlice[E](rng, m*k)  // m×k for MatMul / TransB's a
	bN := randSlice[E](rng, k*n) // k×n for MatMul / TransA's b
	bT := randSlice[E](rng, n*k) // n×k for TransB
	aT := randSlice[E](rng, k*m) // k×m for TransA
	if sparse {
		zeroChannels(a, m, k, 2)
		zeroChannels(bN, k, n, 3)
		zeroChannels(bT, n, k, 2)
		zeroChannels(aT, k, m, 3)
	}

	got := make([]E, m*n)
	want := make([]E, m*n)
	matmulTiled(got, a, bN, 0, m, k, n)
	matmulRowsRef(want, a, bN, 0, m, k, n)
	diffIdx(t, "matmul", got, want)

	for i := range got {
		got[i], want[i] = 0, 0
	}
	matmulTransBTiled(got, a, bT, 0, m, k, n)
	matmulTransBRowsRef(want, a, bT, 0, m, k, n)
	diffIdx(t, "matmulTransB", got, want)

	for i := range got {
		got[i], want[i] = 0, 0
	}
	matmulTransATiled(got, aT, bN, 0, m, k, m, n)
	matmulTransARowsRef(want, aT, bN, 0, m, k, m, n)
	diffIdx(t, "matmulTransA", got, want)
}

// diffIdx fails on the first bitwise mismatch between got and want.
func diffIdx[E Elem](t *testing.T, kernel string, got, want []E) {
	t.Helper()
	for i := range got {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			t.Fatalf("%s: cell %d differs: tiled %v, reference %v", kernel, i, got[i], want[i])
		}
	}
}

func TestTiledMatchesReferenceFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range kernelShapes {
		checkKernelsMatchRef[float64](t, rng, s.m, s.k, s.n, false)
		checkKernelsMatchRef[float64](t, rng, s.m, s.k, s.n, true)
	}
}

func TestTiledMatchesReferenceFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, s := range kernelShapes {
		checkKernelsMatchRef[float32](t, rng, s.m, s.k, s.n, false)
		checkKernelsMatchRef[float32](t, rng, s.m, s.k, s.n, true)
	}
}

// TestMatMul32SerialParallelIdentity pins the float32 serial-vs-parallel
// bit-identity contract at several worker counts, mirroring the float64
// suite: row blocks run the identical tiled kernel, so worker count must
// never perturb a single bit.
func TestMatMul32SerialParallelIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, k, n := 96, 80, 72 // m·k·n ≫ parallelFlopCutoff
	a := NewOf[float32](m, k)
	b := NewOf[float32](k, n)
	bt := NewOf[float32](n, k)
	at := NewOf[float32](k, m)
	for _, s := range [][]float32{a.Data, b.Data, bt.Data, at.Data} {
		for i := range s {
			s[i] = float32(rng.NormFloat64())
		}
	}

	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	wantMM := NewOf[float32](m, n)
	wantTB := NewOf[float32](m, n)
	wantTA := NewOf[float32](m, n)
	MatMulInto(wantMM, a, b)
	MatMulTransBInto(wantTB, a, bt)
	MatMulTransAInto(wantTA, at, b)

	for _, workers := range []int{2, 3, 8} {
		parallel.SetWorkers(workers)
		got := NewOf[float32](m, n)
		MatMulInto(got, a, b)
		diffIdx(t, "MatMulInto float32", got.Data, wantMM.Data)
		MatMulTransBInto(got, a, bt)
		diffIdx(t, "MatMulTransBInto float32", got.Data, wantTB.Data)
		MatMulTransAInto(got, at, b)
		diffIdx(t, "MatMulTransAInto float32", got.Data, wantTA.Data)
	}
}

// TestIm2ColFloat32MatchesFloat64 checks the float32 im2col/col2im against the
// float64 path on float32-representable data (conversion is exact, so the
// results must agree exactly).
func TestIm2ColFloat32MatchesFloat64(t *testing.T) {
	d := ConvDims{C: 3, H: 9, W: 7, K: 3, Stride: 2, Pad: 1}
	rng := rand.New(rand.NewSource(10))
	img64 := make([]float64, d.C*d.H*d.W)
	img32 := make([]float32, len(img64))
	for i := range img64 {
		v := float32(rng.NormFloat64())
		img32[i] = v
		img64[i] = float64(v)
	}
	colLen := d.C * d.K * d.K * d.OutH() * d.OutW()
	col64 := make([]float64, colLen)
	col32 := make([]float32, colLen)
	Im2Col(img64, d, col64)
	Im2Col(img32, d, col32)
	for i := range col64 {
		if float64(col32[i]) != col64[i] {
			t.Fatalf("im2col cell %d: float32 %v, float64 %v", i, col32[i], col64[i])
		}
	}

	back64 := make([]float64, len(img64))
	back32 := make([]float32, len(img32))
	Col2Im(col64, d, back64)
	Col2Im(col32, d, back32)
	for i := range back64 {
		if math.Abs(float64(back32[i])-back64[i]) > 1e-5*(1+math.Abs(back64[i])) {
			t.Fatalf("col2im cell %d: float32 %v, float64 %v", i, back32[i], back64[i])
		}
	}
}

func TestT32Basics(t *testing.T) {
	x := NewOf[float32](2, 3)
	if x.Rank() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Len() != 6 {
		t.Fatalf("NewOf[float32] shape metadata wrong: %v", x.Shape())
	}
	for i := range x.Data {
		x.Data[i] = float32(i) + 0.5
	}
	c := x.Clone()
	c.Data[0] = -1
	if x.Data[0] == -1 {
		t.Fatal("Clone aliases the original buffer")
	}
	r := x.Reshape(3, 2)
	r.Data[0] = 42
	if x.Data[0] != 42 {
		t.Fatal("Reshape must alias the buffer")
	}
	y := NewOf[float32](2, 3)
	y.CopyFrom(x)
	for i := range y.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatalf("CopyFrom cell %d: %v != %v", i, y.Data[i], x.Data[i])
		}
	}
	y.Zero()
	for i := range y.Data {
		if y.Data[i] != 0 {
			t.Fatal("Zero left non-zero cells")
		}
	}
	if got := FromSlice([]float32{1, 2, 3, 4}, 2, 2); got.Data[3] != 4 {
		t.Fatal("FromSlice lost data")
	}
}

// TestT32RoundTripExact pins the property the nn float32 backend's
// boundary conversions rely on: float32→float64→float32 reproduces the
// original bits for every value, including negative zero and denormals.
func TestT32RoundTripExact(t *testing.T) {
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -1.5, 3.1415927,
		math.MaxFloat32, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40}
	src := FromSlice(append([]float32(nil), vals...), len(vals))
	wide := New(len(vals))
	back := NewOf[float32](len(vals))
	src.To64(wide)
	back.From64(wide)
	for i := range vals {
		if math.Float32bits(back.Data[i]) != math.Float32bits(vals[i]) {
			t.Fatalf("value %v did not survive the round trip (got %v)", vals[i], back.Data[i])
		}
	}
}

func TestArenaFloat32Reuse(t *testing.T) {
	var a ArenaOf[float32]
	x := a.Get("x", 4, 5)
	x.Data[0] = 7
	if y := a.Get("x", 4, 5); y != x {
		t.Fatal("same slot+shape must return the same buffer")
	}
	if y := a.Get("x", 5, 4); y == x {
		t.Fatal("different shape must not alias")
	}
	if y := a.Get("y", 4, 5); y == x {
		t.Fatal("different slot must not alias")
	}
	if y := a.GetIndexedLike("x", 1, New(4, 5)); y == x {
		t.Fatal("indexed lookup must not alias the unindexed slot")
	}
	if y := a.GetLike("x", x); y != x {
		t.Fatal("GetLike must hit the same buffer")
	}
	t64 := New(4, 5)
	if y := a.GetLike("x", t64); y != x {
		t.Fatal("GetLike of a float64 tensor must hit the same buffer for the same shape")
	}
}
