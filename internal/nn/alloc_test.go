//go:build !race

package nn

import (
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// The tests below are the allocation-regression gate of the training hot
// path (ISSUE 2): once warm, layer forward/backward passes and a whole SGD
// step reuse their buffers and perform zero heap allocations. They pin the
// worker count to 1 because the sample-parallel conv path allocates its
// goroutines (that cost is inherent to fanning out, not a regression), and
// are excluded under the race detector, whose instrumentation allocates.

func TestConv2DWarmPassAllocFree(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	rng := rand.New(rand.NewSource(51))
	dims := tensor.ConvDims{C: 8, H: 16, W: 16, K: 3, Stride: 1, Pad: 1}
	l := NewConv2D("conv", dims, 16, rng)
	const batch = 8
	x := tensor.New(batch, dims.C, dims.H, dims.W)
	x.Randn(rng, 1)
	dout := tensor.New(batch, 16, 16, 16)
	dout.Randn(rng, 1)

	step := func() {
		l.Forward(x, true)
		l.Backward(dout)
	}
	step() // warm: allocates cols backing, scratch, headers
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Errorf("warm Conv2D forward+backward: %v allocs/op, want 0", allocs)
	}
}

func TestDenseWarmPassAllocFree(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	rng := rand.New(rand.NewSource(52))
	l := NewDense("fc", 64, 10, rng)
	x := tensor.New(32, 64)
	x.Randn(rng, 1)
	dout := tensor.New(32, 10)
	dout.Randn(rng, 1)

	step := func() {
		l.Forward(x, true)
		l.Backward(dout)
	}
	step()
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Errorf("warm Dense forward+backward: %v allocs/op, want 0", allocs)
	}
}

// TestTrainStepWarmAllocFree is the tentpole gate: a full SGD step on the
// SmallCNN — forward, loss gradient, backward, optimizer update — allocates
// nothing once the model's scratch buffers and the optimizer's velocity
// are warm.
func TestTrainStepWarmAllocFree(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	rng := rand.New(rand.NewSource(53))
	m := NewSmallCNN(Input{C: 1, H: 16, W: 16}, 10, rng)
	const batch = 32
	x := tensor.New(batch, 1, 16, 16)
	x.Randn(rng, 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	opt := NewSGD(0.05, 0.9, 1e-4)
	var dlogits *tensor.Tensor

	step := func() {
		m.ZeroGrads()
		logits := m.Forward(x, true)
		if dlogits == nil {
			dlogits = tensor.New(logits.Dim(0), logits.Dim(1))
		}
		SoftmaxXentInto(dlogits, logits, labels)
		m.Backward(dlogits)
		opt.Step(m)
	}
	step() // warm every layer's scratch and the velocity buffers
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Errorf("warm train step: %v allocs/op, want 0", allocs)
	}
}

// TestEvalForwardWarmAllocFree gates the inference path: every pass lends
// its outputs from layer scratch, so a warm inference pass allocates
// nothing.
func TestEvalForwardWarmAllocFree(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	rng := rand.New(rand.NewSource(54))
	m := NewSmallCNN(Input{C: 1, H: 16, W: 16}, 10, rng)
	x := tensor.New(32, 1, 16, 16)
	x.Randn(rng, 1)

	m.Forward(x, false) // warm the eval scratch
	if allocs := testing.AllocsPerRun(10, func() { m.Forward(x, false) }); allocs != 0 {
		t.Errorf("warm eval forward: %v allocs/op, want 0", allocs)
	}
}

// TestFloat32TrainStepWarmAllocFree is the float32-backend twin of the
// train-step gate: shadow weights, float32 activations and the widened
// boundary tensors all live in arenas, so a warm step allocates nothing.
func TestFloat32TrainStepWarmAllocFree(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	rng := rand.New(rand.NewSource(55))
	m := NewSmallCNN(Input{C: 1, H: 16, W: 16}, 10, rng)
	m.SetBackend(Float32)
	const batch = 32
	x := tensor.New(batch, 1, 16, 16)
	x.Randn(rng, 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	opt := NewSGD(0.05, 0.9, 1e-4)
	var dlogits *tensor.Tensor

	step := func() {
		m.ZeroGrads()
		logits := m.Forward(x, true)
		if dlogits == nil {
			dlogits = tensor.New(logits.Dim(0), logits.Dim(1))
		}
		SoftmaxXentInto(dlogits, logits, labels)
		m.Backward(dlogits)
		opt.Step(m)
	}
	step()
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Errorf("warm float32 train step: %v allocs/op, want 0", allocs)
	}
}

// TestMiniVGGFloat32TrainStepWarmAllocFree is the same gate on the model
// and backend of the cleanse_cifar_f32 workload: BatchNorm's per-channel
// accumulators, the conv tables' stage buffers and every element-wise
// routine's dispatch are warm after one step and allocate nothing after.
func TestMiniVGGFloat32TrainStepWarmAllocFree(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	rng := rand.New(rand.NewSource(57))
	m := NewMiniVGG(Input{C: 3, H: 16, W: 16}, 10, rng)
	m.SetBackend(Float32)
	const batch = 20
	x := tensor.New(batch, 3, 16, 16)
	x.Randn(rng, 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	opt := NewSGD(0.05, 0.9, 1e-4)
	dlogits := tensor.New(batch, 10)

	step := func() {
		m.ZeroGrads()
		SoftmaxXentInto(dlogits, m.Forward(x, true), labels)
		m.BackwardParams(dlogits)
		opt.Step(m)
	}
	step()
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Errorf("warm MiniVGG float32 train step: %v allocs/op, want 0", allocs)
	}
}

// TestFloat32EvalForwardWarmAllocFree covers the float32 inference path,
// the widened boundary included.
func TestFloat32EvalForwardWarmAllocFree(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	rng := rand.New(rand.NewSource(56))
	m := NewSmallCNN(Input{C: 1, H: 16, W: 16}, 10, rng)
	m.SetBackend(Float32)
	x := tensor.New(32, 1, 16, 16)
	x.Randn(rng, 1)

	m.Forward(x, false)
	if allocs := testing.AllocsPerRun(10, func() { m.Forward(x, false) }); allocs != 0 {
		t.Errorf("warm float32 eval forward: %v allocs/op, want 0", allocs)
	}
}
