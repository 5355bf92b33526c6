package tensor

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// FuzzMatMulTiled drives the production matmul entry points — tiled
// kernels plus parallel row-blocking — over fuzzer-chosen shapes, worker
// counts and precisions, and compares every cell against a naive
// triple-loop oracle written with no blocking at all. Because both sides
// accumulate each output cell in ascending-p order, the comparison is
// exact (bit equality), not tolerance-based: any reordering introduced by
// a future tile-size change would trip it immediately.
//
// Every draw goes down both kernel paths: the entry points run whatever
// the host dispatches to (the AVX2 assembly where CPUID allows it,
// DESIGN.md §3), the pure-Go tiled loops are called directly, and both
// must match the oracle — so the assembly is compared with the Go loops
// bit for bit on every shape the fuzzer finds.
//
// The checked-in corpus (testdata/fuzz/FuzzMatMulTiled) pins the
// degenerate shapes the blocking logic is most likely to get wrong:
// 1×k×1 row-vector·column-vector, m×1×n outer products, shapes
// straddling the kc/nc panel edges in both precisions, column counts one
// short of and one past a vector, the n = 4 and k = 4 products of
// MiniVGG's last conv block, and a parallel split that leaves every row
// block a remainder group.
func FuzzMatMulTiled(f *testing.F) {
	f.Add(int64(1), int64(33), int64(1), int64(1), false, int64(1)) // 1×k×1
	f.Add(int64(17), int64(1), int64(9), int64(2), false, int64(2)) // m×1×n
	f.Add(int64(129), int64(128), int64(257), int64(3), false, int64(3))
	f.Add(int64(5), int64(257), int64(513), int64(4), true, int64(4))
	f.Add(int64(4), int64(4), int64(4), int64(8), true, int64(5))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw, workersRaw int64, useF32 bool, seed int64) {
		m := int(abs64(mRaw)%48) + 1
		k := int(abs64(kRaw)%300) + 1
		n := int(abs64(nRaw)%520) + 1
		workers := int(abs64(workersRaw)%8) + 1
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		rng := rand.New(rand.NewSource(seed))
		if useF32 {
			fuzzOne[float32](t, rng, m, k, n)
		} else {
			fuzzOne[float64](t, rng, m, k, n)
		}
	})
}

func abs64(v int64) int64 {
	if v < 0 {
		if v == math.MinInt64 {
			return 0
		}
		return -v
	}
	return v
}

// fuzzOne checks all three kernels for one (shape, precision) draw. A
// slice of the operands is zeroed so the sparsity paths and padding-like
// structure are exercised too.
func fuzzOne[E Elem](t *testing.T, rng *rand.Rand, m, k, n int) {
	a := randSlice[E](rng, m*k)
	bN := randSlice[E](rng, k*n)
	bT := randSlice[E](rng, n*k)
	aT := randSlice[E](rng, k*m)
	if m > 1 {
		zeroChannels(a, m, k, 2)
	}
	if k > 1 {
		zeroChannels(aT, k, m, 2)
	}

	got := make([]E, m*n)
	want := make([]E, m*n)

	goPath := make([]E, m*n)

	matmulInto(got, a, bN, m, k, n)
	matmulTiledGo(goPath, a, bN, 0, m, k, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s E
			for p := 0; p < k; p++ {
				s += a[i*k+p] * bN[p*n+j]
			}
			want[i*n+j] = s
		}
	}
	fuzzDiff(t, "matmul", got, want, m, k, n)
	fuzzDiff(t, "matmul (Go loops)", goPath, want, m, k, n)

	matmulTransBInto(got, a, bT, m, k, n)
	matmulTransBTiledGo(goPath, a, bT, 0, m, k, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s E
			for p := 0; p < k; p++ {
				s += a[i*k+p] * bT[j*k+p]
			}
			want[i*n+j] = s
		}
	}
	fuzzDiff(t, "matmulTransB", got, want, m, k, n)
	fuzzDiff(t, "matmulTransB (Go loops)", goPath, want, m, k, n)

	for i := range got {
		got[i], goPath[i] = 0, 0
	}
	matmulTransAInto(got, aT, bN, k, m, n)
	matmulTransATiledGo(goPath, aT, bN, 0, m, k, m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s E
			for p := 0; p < k; p++ {
				s += aT[p*m+i] * bN[p*n+j]
			}
			want[i*n+j] = s
		}
	}
	fuzzDiff(t, "matmulTransA", got, want, m, k, n)
	fuzzDiff(t, "matmulTransA (Go loops)", goPath, want, m, k, n)
}

func fuzzDiff[E Elem](t *testing.T, kernel string, got, want []E, m, k, n int) {
	t.Helper()
	for i := range got {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			t.Fatalf("%s %dx%dx%d: cell %d differs: tiled %v, naive %v",
				kernel, m, k, n, i, got[i], want[i])
		}
	}
}
