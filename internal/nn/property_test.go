package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// A layer's outputs are loans its next pass overwrites (DESIGN.md §4), so
// every output these properties keep across a pass is cloned.

// Property: convolution (without bias) is linear in its input —
// conv(a·x + b·y) == a·conv(x) + b·conv(y).
func TestConvLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := tensor.ConvDims{
			C: 1 + r.Intn(2), H: 4 + r.Intn(4), W: 4 + r.Intn(4),
			K: 3, Stride: 1, Pad: 1,
		}
		conv := NewConv2D("conv", d, 1+r.Intn(4), r)
		conv.B.Value.Zero()
		a, b := r.NormFloat64(), r.NormFloat64()
		x := tensor.New(2, d.C, d.H, d.W)
		y := tensor.New(2, d.C, d.H, d.W)
		x.Randn(r, 1)
		y.Randn(r, 1)
		mix := x.Clone()
		mix.Scale(a)
		mix.AddScaled(b, y)
		left := conv.Forward(mix, false).Clone()
		ox := conv.Forward(x, false).Clone()
		oy := conv.Forward(y, false)
		ox.Scale(a)
		ox.AddScaled(b, oy)
		return left.Equal(ox, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: max pooling commutes with monotone shifts — pool(x + c) ==
// pool(x) + c for any constant c.
func TestPoolShiftInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pool := NewMaxPool2D("pool", 2, 2)
		x := tensor.New(1, 2, 6, 6)
		x.Randn(r, 1)
		c := r.NormFloat64()
		shifted := x.Clone()
		for i := range shifted.Data {
			shifted.Data[i] += c
		}
		a := pool.Forward(x, false).Clone()
		b := pool.Forward(shifted, false)
		for i := range a.Data {
			if math.Abs(b.Data[i]-(a.Data[i]+c)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: max pooling never invents values — every output element is an
// element of the input.
func TestPoolOutputsAreInputsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pool := NewMaxPool2D("pool", 2, 2)
		x := tensor.New(1, 1, 8, 8)
		x.Randn(r, 1)
		out := pool.Forward(x, false)
		in := map[float64]bool{}
		for _, v := range x.Data {
			in[v] = true
		}
		for _, v := range out.Data {
			if !in[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: training-mode batch norm output is invariant to any per-channel
// affine rescaling of its input (that is exactly what normalization does).
func TestBatchNormScaleInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bn := NewBatchNorm2D("bn", 2)
		x := tensor.New(4, 2, 3, 3)
		x.Randn(r, 1)
		scale := 0.5 + r.Float64()*4
		shift := r.NormFloat64() * 3
		y := x.Clone()
		for i := range y.Data {
			y.Data[i] = y.Data[i]*scale + shift
		}
		a := bn.Forward(x, true)
		b := NewBatchNorm2D("bn2", 2).Forward(y, true)
		// The eps inside 1/sqrt(var+eps) breaks exact invariance; allow a
		// correspondingly small tolerance.
		return a.Equal(b, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: ReLU is idempotent — relu(relu(x)) == relu(x).
func TestReLUIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		relu := NewReLU("r")
		x := tensor.New(1, 10)
		x.Randn(r, 2)
		once := relu.Forward(x, false).Clone()
		twice := relu.Forward(once, false)
		return twice.Equal(once, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the parameter vector round-trips through Set/Get exactly for
// every architecture in the zoo.
func TestParamsVectorRoundTripProperty(t *testing.T) {
	builders := []ModelBuilder{NewSmallCNN, NewLargeCNN, NewFashionCNN}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		build := builders[int(uint64(seed)%uint64(len(builders)))]
		m := build(Input{C: 1, H: 16, W: 16}, 10, r)
		v := m.ParamsVector()
		for i := range v {
			v[i] = r.NormFloat64()
		}
		m.SetParamsVector(v)
		got := m.ParamsVector()
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: pruning more units never increases the count of non-zero
// parameters (monotone mask growth).
func TestPruneMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := tensor.ConvDims{C: 1, H: 4, W: 4, K: 3, Stride: 1, Pad: 1}
		conv := NewConv2D("conv", d, 6, r)
		m := NewSequential(conv)
		nonZero := func() int {
			n := 0
			for _, v := range conv.W.Value.Data {
				if v != 0 {
					n++
				}
			}
			return n
		}
		prev := nonZero()
		for _, u := range r.Perm(6) {
			m.PruneModelUnit(0, u)
			cur := nonZero()
			if cur > prev {
				return false
			}
			prev = cur
		}
		return prev == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
