package nn

import (
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// TestConvForwardParallelBitIdentical pins the conv layer's determinism
// guarantee: a batch big enough to take the sample-parallel path produces
// bit-identical activations (and cached im2col matrices for backward) at
// worker counts 1, 2 and 8.
func TestConvForwardParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dims := tensor.ConvDims{C: 8, H: 16, W: 16, K: 3, Stride: 1, Pad: 1}
	l := NewConv2D("conv", dims, 16, rng)
	const batch = 64
	x := tensor.New(batch, dims.C, dims.H, dims.W)
	x.Randn(rng, 1)

	// Train-mode forward reuses the layer's output and im2col buffers
	// across calls, so the reference run must deep-copy them before the
	// next run overwrites them in place.
	run := func(w int) (*tensor.Tensor, []*tensor.Tensor) {
		prev := parallel.SetWorkers(w)
		defer parallel.SetWorkers(prev)
		out := l.Forward(x, true).Clone()
		cols := make([]*tensor.Tensor, len(l.f64.cols))
		for s := range l.f64.cols {
			cols[s] = l.f64.cols[s].Clone()
		}
		return out, cols
	}

	refOut, refCols := run(1)
	for _, w := range []int{2, 8} {
		out, cols := run(w)
		if !out.Equal(refOut, 0) {
			t.Fatalf("workers=%d: conv forward differs from serial", w)
		}
		for s := range cols {
			if !cols[s].Equal(refCols[s], 0) {
				t.Fatalf("workers=%d: cached im2col for sample %d differs", w, s)
			}
		}
	}
}

// TestModelForwardParallelBitIdentical runs a whole SmallCNN forward on a
// large batch under different worker counts — the end-to-end check that
// layer composition preserves the per-kernel determinism guarantees.
func TestModelForwardParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewSmallCNN(Input{C: 1, H: 16, W: 16}, 10, rng)
	x := tensor.New(64, 1, 16, 16)
	x.Randn(rng, 1)

	run := func(w int) *tensor.Tensor {
		prev := parallel.SetWorkers(w)
		defer parallel.SetWorkers(prev)
		return m.Forward(x, false).Clone() // a loan the next run overwrites
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); !got.Equal(ref, 0) {
			t.Fatalf("workers=%d: model forward differs from serial", w)
		}
	}
}
