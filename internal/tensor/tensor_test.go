package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The allocating matmul variants and Transpose are the tests' references:
// production calls the Into kernels only.

// MatMul returns a·b for 2-D tensors a (m×k) and b (k×n). The result is a
// freshly allocated m×n tensor, computed by the cache-blocked tiled kernel
// (kernels.go) — bit-identical to the pre-tile reference for finite inputs.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := checkMatMul(a, b)
	out := New(m, n)
	matmulInto(out.Data, a.Data, b.Data, m, k, n)
	return out
}

// MatMulTransB returns a·bᵀ for a (m×k) and b (n×k).
func MatMulTransB(a, b *Tensor) *Tensor {
	m, _, n := checkMatMulTransB(a, b)
	out := New(m, n)
	MatMulTransBInto(out, a, b)
	return out
}

// MatMulTransA returns aᵀ·b for a (k×m) and b (k×n).
func MatMulTransA(a, b *Tensor) *Tensor {
	m, k, n := checkMatMulTransA(a, b)
	out := New(m, n)
	matmulTransAInto(out.Data, a.Data, b.Data, k, m, n)
	return out
}

// Transpose returns the transpose of a 2-D tensor as a new tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose requires rank-2, got %v", a.shape))
	}
	m, n := a.Dim(0), a.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

func TestNewZeroFilled(t *testing.T) {
	tt := New(2, 3)
	if tt.Len() != 6 {
		t.Fatalf("Len = %d, want 6", tt.Len())
	}
	for i, v := range tt.Data {
		if v != 0 {
			t.Fatalf("element %d = %g, want 0", i, v)
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {-1}, {2, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(2, 3, 4)
	tt.Set(7.5, 1, 2, 3)
	if got := tt.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %g, want 7.5", got)
	}
	// Row-major: offset of (1,2,3) in [2,3,4] is 1*12+2*4+3 = 23.
	if tt.Data[23] != 7.5 {
		t.Fatalf("flat offset wrong: Data[23] = %g", tt.Data[23])
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	tt := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of bounds did not panic")
		}
	}()
	tt.At(2, 0)
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
	if !a.Equal(FromSlice([]float64{1, 2, 3, 4}, 2, 2), 0) {
		t.Fatal("original mutated")
	}
}

func TestReshapeAliases(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Data[0] = 42
	if a.Data[0] != 42 {
		t.Fatal("Reshape should alias the buffer")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape with wrong element count did not panic")
		}
	}()
	a.Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	a.Add(b)
	want := FromSlice([]float64{11, 22, 33}, 3)
	if !a.Equal(want, 1e-12) {
		t.Fatalf("Add: got %v", a)
	}
	a.AddScaled(0.5, b)
	if !a.Equal(FromSlice([]float64{16, 32, 48}, 3), 1e-12) {
		t.Fatalf("AddScaled: got %v", a)
	}
	a.Scale(2)
	if !a.Equal(FromSlice([]float64{32, 64, 96}, 3), 1e-12) {
		t.Fatalf("Scale: got %v", a)
	}
}

func TestStats(t *testing.T) {
	a := FromSlice([]float64{2, 4, 4, 4, 5, 5, 7, 9}, 8)
	if got := a.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %g, want 5", got)
	}
	if got := a.Std(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Std = %g, want 2", got)
	}
	if got := a.Sum(); got != 40 {
		t.Fatalf("Sum = %g, want 40", got)
	}
}

// TestZeroOutside: values outside mu ± delta·sigma become zero, the bounds
// themselves and NaN stay, into a separate destination and in place.
func TestZeroOutside(t *testing.T) {
	src := []float64{-3.5, -2.5, 1, 4.5, 5, math.NaN()}
	want := []float64{0, -2.5, 1, 4.5, 0, math.NaN()}
	dst := make([]float64, len(src))
	for _, d := range [][]float64{dst, src} {
		if n := ZeroOutside(d, src, 1, 1.5, 2.5); n != 2 {
			t.Fatalf("zeroed %d, want 2", n)
		}
		for i, v := range d {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("ZeroOutside = %v, want %v", d, want)
			}
		}
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !got.Equal(want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 4)
	a.Randn(rng, 1)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	if got := MatMul(a, id); !got.Equal(a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if got := MatMul(id, a); !got.Equal(a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with mismatched inner dims did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulInto(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	dst := New(2, 2)
	dst.Fill(99) // must be overwritten, not accumulated
	MatMulInto(dst, a, b)
	if !dst.Equal(MatMul(a, b), 1e-12) {
		t.Fatalf("MatMulInto = %v", dst)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(3, 5)
	a.Randn(rng, 1)
	if got := Transpose(Transpose(a)); !got.Equal(a, 0) {
		t.Fatal("transpose twice != identity")
	}
}

// randMat returns a deterministic pseudo-random matrix for property tests.
func randMat(rng *rand.Rand, m, n int) *Tensor {
	t := New(m, n)
	t.Randn(rng, 1)
	return t
}

func TestMatMulTransBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := randMat(rng, m, k)
		b := randMat(rng, n, k)
		got := MatMulTransB(a, b)
		want := MatMul(a, Transpose(b))
		if !got.Equal(want, 1e-9) {
			t.Fatalf("trial %d: MatMulTransB mismatch", trial)
		}
	}
}

func TestMatMulTransAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := randMat(rng, k, m)
		b := randMat(rng, k, n)
		got := MatMulTransA(a, b)
		want := MatMul(Transpose(a), b)
		if !got.Equal(want, 1e-9) {
			t.Fatalf("trial %d: MatMulTransA mismatch", trial)
		}
	}
}

// Property: matmul distributes over addition, A·(B+C) == A·B + A·C.
func TestMatMulDistributiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		c := randMat(r, k, n)
		bc := b.Clone()
		bc.Add(c)
		left := MatMul(a, bc)
		right := MatMul(a, b)
		right.Add(MatMul(a, c))
		return left.Equal(right, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling commutes with matmul, (αA)·B == α(A·B).
func TestMatMulScaleCommutesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		alpha := r.NormFloat64()
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		sa := a.Clone()
		sa.Scale(alpha)
		left := MatMul(sa, b)
		right := MatMul(a, b)
		right.Scale(alpha)
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
