package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

func TestBatchNormTrainOutputNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	l := NewBatchNorm2D("bn", 3)
	x := tensor.New(8, 3, 4, 4)
	x.Randn(rng, 2)
	// Shift channel 1 far off-center to verify per-channel normalization.
	for s := 0; s < 8; s++ {
		for i := 0; i < 16; i++ {
			x.Data[(s*3+1)*16+i] += 10
		}
	}
	out := l.Forward(x, true)
	for c := 0; c < 3; c++ {
		var sum, ss float64
		n := 0
		for s := 0; s < 8; s++ {
			base := (s*3 + c) * 16
			for i := 0; i < 16; i++ {
				sum += out.Data[base+i]
				n++
			}
		}
		mean := sum / float64(n)
		for s := 0; s < 8; s++ {
			base := (s*3 + c) * 16
			for i := 0; i < 16; i++ {
				d := out.Data[base+i] - mean
				ss += d * d
			}
		}
		std := math.Sqrt(ss / float64(n))
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("channel %d mean %g, want ~0", c, mean)
		}
		if math.Abs(std-1) > 1e-3 {
			t.Fatalf("channel %d std %g, want ~1", c, std)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l := NewBatchNorm2D("bn", 2)
	// Feed several training batches so the running stats converge.
	for i := 0; i < 50; i++ {
		x := tensor.New(16, 2, 2, 2)
		x.Randn(rng, 1)
		for j := range x.Data {
			x.Data[j] = x.Data[j]*3 + 5 // mean 5, std 3
		}
		l.Forward(x, true)
	}
	// At inference a sample equal to the data mean must map near beta (=0).
	x := tensor.New(1, 2, 2, 2)
	x.Fill(5)
	out := l.Forward(x, false)
	for i, v := range out.Data {
		if math.Abs(v) > 0.15 {
			t.Fatalf("eval output[%d] = %g, want ~0 for mean input", i, v)
		}
	}
}

func TestBatchNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	conv := NewConv2D("conv", tensor.ConvDims{C: 1, H: 4, W: 4, K: 3, Stride: 1, Pad: 1}, 2, rng)
	bn := NewBatchNorm2D("bn", 2)
	// Give gamma/beta non-trivial values so their gradients are exercised.
	bn.Gamma.Value.Data[0], bn.Gamma.Value.Data[1] = 1.3, 0.7
	bn.Beta.Value.Data[0], bn.Beta.Value.Data[1] = 0.2, -0.4
	m := NewSequential(conv, bn, NewReLU("r"), NewFlatten("f"),
		NewDense("fc", 2*4*4, 3, rng))
	x := tensor.New(3, 1, 4, 4)
	x.Randn(rng, 1)
	labels := []int{0, 1, 2}

	// Train-mode loss (BN uses batch statistics in both analytic and
	// numeric evaluation).
	trainLoss := func() float64 {
		logits := m.Forward(x.Clone(), true)
		loss, _ := SoftmaxXent(logits, labels)
		return loss
	}
	m.ZeroGrads()
	logits := m.Forward(x.Clone(), true)
	_, d := SoftmaxXent(logits, labels)
	dx := m.Backward(d)
	var analytic [][]float64
	for _, p := range m.Params() {
		analytic = append(analytic, append([]float64(nil), p.Grad.Data...))
	}
	const eps = 1e-5
	const tol = 1e-5
	for pi, p := range m.Params() {
		for i := 0; i < p.Value.Len(); i++ {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			up := trainLoss()
			p.Value.Data[i] = orig - eps
			down := trainLoss()
			p.Value.Data[i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-analytic[pi][i]) > tol*(1+math.Abs(numeric)) {
				t.Fatalf("param %s[%d]: analytic %.8g vs numeric %.8g", p.Name, i, analytic[pi][i], numeric)
			}
		}
	}
	for i := 0; i < x.Len(); i++ {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := trainLoss()
		x.Data[i] = orig - eps
		down := trainLoss()
		x.Data[i] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-dx.Data[i]) > tol*(1+math.Abs(numeric)) {
			t.Fatalf("input[%d]: analytic %.8g vs numeric %.8g", i, dx.Data[i], numeric)
		}
	}
}

func TestBatchNormPruneZeroesAffine(t *testing.T) {
	l := NewBatchNorm2D("bn", 4)
	l.PruneUnit(2)
	if l.Gamma.Value.Data[2] != 0 || l.Beta.Value.Data[2] != 0 {
		t.Fatal("pruned BN channel affine not zeroed")
	}
	rng := rand.New(rand.NewSource(23))
	x := tensor.New(2, 4, 3, 3)
	x.Randn(rng, 5)
	out := l.Forward(x, true)
	for s := 0; s < 2; s++ {
		base := (s*4 + 2) * 9
		for i := 0; i < 9; i++ {
			if out.Data[base+i] != 0 {
				t.Fatal("pruned BN channel produced non-zero output")
			}
		}
	}
}

func TestPruneModelUnitCascadesToBatchNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	conv := NewConv2D("conv", tensor.ConvDims{C: 1, H: 4, W: 4, K: 3, Stride: 1, Pad: 1}, 3, rng)
	bn := NewBatchNorm2D("bn", 3)
	m := NewSequential(conv, bn, NewReLU("r"))
	m.PruneModelUnit(0, 1)
	if !conv.UnitPruned(1) {
		t.Fatal("conv channel not pruned")
	}
	if !bn.UnitPruned(1) {
		t.Fatal("BN channel not cascaded")
	}
	// The pruned channel must emit exactly zero end to end, train and eval.
	x := tensor.New(2, 1, 4, 4)
	x.Randn(rng, 1)
	for _, train := range []bool{true, false} {
		out := m.Forward(x, train)
		for s := 0; s < 2; s++ {
			base := (s*3 + 1) * 16
			for i := 0; i < 16; i++ {
				if out.Data[base+i] != 0 {
					t.Fatalf("train=%v: pruned channel leaked %g", train, out.Data[base+i])
				}
			}
		}
	}
}

func TestBatchNormCloneCopiesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	l := NewBatchNorm2D("bn", 2)
	x := tensor.New(8, 2, 2, 2)
	x.Randn(rng, 3)
	l.Forward(x, true)
	c := l.CloneLayer().(*BatchNorm2D)
	// Eval outputs must match exactly.
	a := l.Forward(x, false)
	b := c.Forward(x, false).Clone() // a loan c's next pass overwrites
	if !a.Equal(b, 0) {
		t.Fatal("clone evaluates differently")
	}
	// Training the original must not affect the clone.
	l.Forward(x, true)
	b2 := c.Forward(x, false)
	if !b.Equal(b2, 0) {
		t.Fatal("clone shares running statistics")
	}
}
