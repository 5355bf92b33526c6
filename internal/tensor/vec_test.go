package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The element-wise passes (vec.go, DESIGN.md §3) against their Go loops,
// bit for bit. The exported functions run whatever the host dispatches to
// — the AVX2 routines where CPUID allows, the same Go loops elsewhere, in
// which case only the canaries are being checked. The harness is shared by
// the table test (every length from nothing to past three vectors × every
// start offset inside a vector), the fuzz target and its checked-in
// corpus. As in kernels_vec_test.go every operand sits inside a larger
// backing slice between NaN canaries: an over-read poisons a result the Go
// loop did not poison, an over-write changes a canary.

// vecRoutine is one pass: outs result operands (read as well as written
// by the accumulating passes, so they start from drawn values), ins
// read-only operands, scalars drawn per call. D and S differ only for the
// passes that cross the precision boundary.
type vecRoutine[D, S Elem] struct {
	name               string
	outs, ins, scalars int
	vec, gold          func(o [][]D, in [][]S, sc []D)
}

func sameTypeRoutines[E Elem]() []vecRoutine[E, E] {
	return []vecRoutine[E, E]{
		{"Relu", 1, 1, 0,
			func(o, in [][]E, _ []E) { Relu(o[0], in[0]) },
			func(o, in [][]E, _ []E) { reluGo(o[0], in[0]) }},
		{"ReluBackward", 1, 2, 0,
			func(o, in [][]E, _ []E) { ReluBackward(o[0], in[0], in[1]) },
			func(o, in [][]E, _ []E) { reluBackwardGo(o[0], in[0], in[1]) }},
		{"Add", 1, 1, 0,
			func(o, in [][]E, _ []E) { Add(o[0], in[0]) },
			func(o, in [][]E, _ []E) { addGo(o[0], in[0]) }},
		{"AddScalar", 1, 1, 1,
			func(o, in [][]E, sc []E) { AddScalar(o[0], in[0], sc[0]) },
			func(o, in [][]E, sc []E) { addScalarGo(o[0], in[0], sc[0]) }},
		{"AddScalar in place", 1, 0, 1,
			func(o, _ [][]E, sc []E) { AddScalar(o[0], o[0], sc[0]) },
			func(o, _ [][]E, sc []E) { addScalarGo(o[0], o[0], sc[0]) }},
		{"Scale", 1, 1, 1,
			func(o, in [][]E, sc []E) { Scale(o[0], in[0], sc[0]) },
			func(o, in [][]E, sc []E) { scaleGo(o[0], in[0], sc[0]) }},
		{"Scale in place", 1, 0, 1,
			func(o, _ [][]E, sc []E) { Scale(o[0], o[0], sc[0]) },
			func(o, _ [][]E, sc []E) { scaleGo(o[0], o[0], sc[0]) }},
		{"NormAffine", 2, 1, 4,
			func(o, in [][]E, sc []E) { NormAffine(o[0], o[1], in[0], sc[0], sc[1], sc[2], sc[3]) },
			func(o, in [][]E, sc []E) { normAffineGo(o[0], o[1], in[0], sc[0], sc[1], sc[2], sc[3]) }},
		{"NormAffine without xhat", 1, 1, 4,
			func(o, in [][]E, sc []E) { NormAffine(o[0], nil, in[0], sc[0], sc[1], sc[2], sc[3]) },
			func(o, in [][]E, sc []E) { normAffineGo(o[0], o[0], in[0], sc[0], sc[1], sc[2], sc[3]) }},
		{"NormBackward", 1, 2, 5,
			func(o, in [][]E, sc []E) { NormBackward(o[0], in[0], in[1], sc[0], sc[1], sc[2], sc[3], sc[4]) },
			func(o, in [][]E, sc []E) { normBackwardGo(o[0], in[0], in[1], sc[0], sc[1], sc[2], sc[3], sc[4]) }},
	}
}

var (
	float64Routines = []vecRoutine[float64, float64]{
		{"Axpy", 1, 1, 1,
			func(o, in [][]float64, sc []float64) { Axpy(o[0], sc[0], in[0]) },
			func(o, in [][]float64, sc []float64) { axpyGo(o[0], sc[0], in[0]) }},
	}
	widenRoutines = []vecRoutine[float64, float32]{
		{"AddWiden", 1, 1, 0,
			func(o [][]float64, in [][]float32, _ []float64) { AddWiden(o[0], in[0]) },
			func(o [][]float64, in [][]float32, _ []float64) { addWidenGo(o[0], in[0]) }},
		{"Widen", 1, 1, 0,
			func(o [][]float64, in [][]float32, _ []float64) { widen(o[0], in[0]) },
			func(o [][]float64, in [][]float32, _ []float64) { widenGo(o[0], in[0]) }},
	}
	narrowRoutines = []vecRoutine[float32, float64]{
		{"Narrow", 1, 1, 0,
			func(o [][]float32, in [][]float64, _ []float32) { narrow(o[0], in[0]) },
			func(o [][]float32, in [][]float64, _ []float32) { narrowGo(o[0], in[0]) }},
	}
)

// vecValues are the operands a vector routine gets wrong first: both
// zeros, subnormals, one, the largest finite value, infinities and NaNs of
// either sign. float64's extremes narrow to ±Inf and ±0, which is what
// Narrow has to agree on.
func vecValues[E Elem]() []E {
	tiny, sub, big := math.SmallestNonzeroFloat64, 1e-310, math.MaxFloat64
	nan, negNaN := E(math.NaN()), E(math.Float64frombits(0xfff8000000000001))
	if !is64[E]() {
		tiny, sub, big = math.SmallestNonzeroFloat32, 1e-40, math.MaxFloat32
		nan, negNaN = E(math.Float32frombits(0x7fc00000)), E(math.Float32frombits(0xffc00001))
	}
	return []E{
		0, E(math.Copysign(0, -1)), E(tiny), E(-tiny), E(sub), E(-sub), 1, -1,
		E(big), E(-big), E(math.Inf(1)), E(math.Inf(-1)), nan, negNaN,
	}
}

func drawVecValue[E Elem](rng *rand.Rand, vals []E) E {
	if rng.Intn(3) == 0 {
		return vals[rng.Intn(len(vals))]
	}
	return E(rng.NormFloat64())
}

// checkVecRoutines runs every routine of rs once on n-element operands
// that start off+1 cells into their backing slices.
func checkVecRoutines[D, S Elem](t *testing.T, rs []vecRoutine[D, S], rng *rand.Rand, n, off int) {
	t.Helper()
	const lanes = 8
	dVals, sVals := vecValues[D](), vecValues[S]()
	for _, r := range rs {
		ctx := func() string { return fmt.Sprintf("n=%d offset=%d", n, off) }
		outs, want, outBack := make([][]D, r.outs), make([][]D, r.outs), make([][]D, r.outs)
		for k := range outs {
			outBack[k], outs[k] = padded[D](n, off, lanes)
			for i := range outs[k] {
				outs[k][i] = drawVecValue(rng, dVals)
			}
			want[k] = append([]D(nil), outs[k]...)
		}
		ins, insCopy, inBack := make([][]S, r.ins), make([][]S, r.ins), make([][]S, r.ins)
		for k := range ins {
			inBack[k], ins[k] = padded[S](n, off, lanes)
			for i := range ins[k] {
				ins[k][i] = drawVecValue(rng, sVals)
			}
			insCopy[k] = append([]S(nil), ins[k]...)
		}
		sc := make([]D, r.scalars)
		for i := range sc {
			sc[i] = drawVecValue(rng, dVals)
		}

		r.vec(outs, ins, sc)
		r.gold(want, insCopy, sc)

		for k := range outs {
			if i, ok := sameCells(outs[k], want[k]); !ok {
				t.Fatalf("%s %s: result %d cell %d = %v (%#x), Go loop %v (%#x); scalars %v",
					r.name, ctx(), k, i, outs[k][i], bitsOf(outs[k][i]), want[k][i], bitsOf(want[k][i]), sc)
			}
			checkCanaries(t, r.name+" result", ctx, outBack[k], outs[k], off)
		}
		for k := range ins {
			// insCopy was handed to the Go loop, which does not write it
			// either: it still holds what ins started as.
			if i, ok := sameCells(ins[k], insCopy[k]); !ok {
				t.Fatalf("%s %s: input %d cell %d was modified", r.name, ctx(), k, i)
			}
			checkCanaries(t, r.name+" input", ctx, inBack[k], ins[k], off)
		}
	}
}

func checkAllVecRoutines(t *testing.T, rng *rand.Rand, n, off int) {
	t.Helper()
	checkVecRoutines(t, sameTypeRoutines[float64](), rng, n, off)
	checkVecRoutines(t, sameTypeRoutines[float32](), rng, n, off)
	checkVecRoutines(t, float64Routines, rng, n, off)
	checkVecRoutines(t, widenRoutines, rng, n, off)
	checkVecRoutines(t, narrowRoutines, rng, n, off)
}

func TestVecRoutinesMatchGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for n := 0; n <= 3*8+1; n++ {
		for off := 0; off < 8; off++ {
			for rep := 0; rep < 4; rep++ {
				checkAllVecRoutines(t, rng, n, off)
			}
		}
	}
}

// FuzzVecKernels lets the fuzzer choose the length, the start offset and
// the values (through the seed). The corpus under
// testdata/fuzz/FuzzVecKernels pins an empty pass, single elements, the
// lengths on both sides of one and two vectors in each precision, and a
// long pass.
func FuzzVecKernels(f *testing.F) {
	f.Add(int64(0), int64(0), int64(1))
	f.Add(int64(9), int64(3), int64(2))
	f.Fuzz(func(t *testing.T, nRaw, offRaw, seed int64) {
		n := int(abs64(nRaw) % 600)
		off := int(abs64(offRaw) % 8)
		checkAllVecRoutines(t, rand.New(rand.NewSource(seed)), n, off)
	})
}

// The named cases: what a plausible wrong kernel gets wrong. Each runs at
// n = 2·lanes+1 so that the value meets the vector body and the scalar
// tail, and checks every cell.

func fillVec[E Elem](n int, v E) []E {
	s := make([]E, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func checkReluCorners[E Elem](t *testing.T) {
	const n = 17
	negZero := E(math.Copysign(0, -1))
	dst := fillVec[E](n, 7)
	// VMAXPx against zero returns its second operand when both are zero
	// and when either is NaN: it fails one of these two whichever way
	// round it is written.
	Relu(dst, fillVec(n, negZero))
	for i, v := range dst {
		if bitsOf(v) != 0 {
			t.Fatalf("relu(-0)[%d] has bits %#x, want +0", i, bitsOf(v))
		}
	}
	for _, nan := range vecValues[E]()[12:] {
		Relu(dst, fillVec(n, nan))
		for i, v := range dst {
			if v == v {
				t.Fatalf("relu(NaN %#x)[%d] = %v, want NaN", bitsOf(nan), i, v)
			}
		}
	}
	Relu(dst, fillVec(n, E(math.Inf(-1))))
	for i, v := range dst {
		if bitsOf(v) != 0 {
			t.Fatalf("relu(-Inf)[%d] has bits %#x, want +0", i, bitsOf(v))
		}
	}
}

func TestReluCorners(t *testing.T) {
	checkReluCorners[float64](t)
	checkReluCorners[float32](t)
}

// checkReluBackwardGate: the gate is "the bits of out are non-zero", not
// "out > 0": −0, a subnormal and a NaN in out all pass dout, +0 alone
// blocks it, and a blocked cell is +0 whatever dout held.
func checkReluBackwardGate[E Elem](t *testing.T) {
	const n = 17
	vals := vecValues[E]()
	douts := []E{-3, E(math.Inf(1)), vals[12], E(math.Copysign(0, -1))}
	dx := make([]E, n)
	for _, o := range vals {
		for _, d := range douts {
			ReluBackward(dx, fillVec(n, d), fillVec(n, o))
			want := bitsOf(d)
			if bitsOf(o) == 0 {
				want = 0
			}
			for i, v := range dx {
				if got := bitsOf(v); got != want && !(v != v && d != d) {
					t.Fatalf("reluBackward(dout %v, out %v (%#x))[%d] has bits %#x, want %#x", d, o, bitsOf(o), i, got, want)
				}
			}
		}
	}
}

func TestReluBackwardGate(t *testing.T) {
	checkReluBackwardGate[float64](t)
	checkReluBackwardGate[float32](t)
}

// TestAxpyDoesNotFuse: (1+ε)² = 1 + 2ε + ε² rounds to 1 + 2ε, so adding it
// to −(1+2ε) gives 0 when the product is rounded first and ε² when the
// multiply-add is fused. The same triple goes through NormAffine's g·xh+b,
// which exists in both precisions.
func TestAxpyDoesNotFuse(t *testing.T) {
	const n = 17
	e64 := 1 + math.Ldexp(1, -30)
	d64 := -(1 + math.Ldexp(1, -29))
	if math.FMA(e64, e64, d64) == 0 || e64*e64+d64 != 0 {
		t.Fatal("the float64 triple does not tell a fused multiply-add from a rounded one")
	}
	dst := fillVec(n, d64)
	Axpy(dst, e64, fillVec(n, e64))
	out, x := make([]float64, n), fillVec(n, e64)
	NormAffine(out, nil, x, 0, 1, e64, d64)
	for i := range dst {
		if dst[i] != 0 {
			t.Fatalf("float64 Axpy cell %d = %g, want 0: the multiply-add was fused", i, dst[i])
		}
		if out[i] != 0 {
			t.Fatalf("float64 NormAffine cell %d = %g, want 0: the multiply-add was fused", i, out[i])
		}
	}

	e32 := float32(1 + math.Ldexp(1, -12))
	d32 := float32(-(1 + math.Ldexp(1, -11)))
	if float64(e32)*float64(e32)+float64(d32) == 0 {
		t.Fatal("the float32 triple does not tell a fused multiply-add from a rounded one")
	}
	out32, xf := make([]float32, n), fillVec(n, e32)
	NormAffine(out32, nil, xf, 0, 1, e32, d32)
	for i := range out32 {
		if out32[i] != 0 {
			t.Fatalf("float32 NormAffine cell %d = %g, want 0: the multiply-add was fused", i, out32[i])
		}
	}
}

func TestVecLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add on slices of different lengths did not panic")
		}
	}()
	Add(make([]float64, 9), make([]float64, 8))
}
