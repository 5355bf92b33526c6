package nn

import (
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// Model-level micro-benchmarks: per-batch forward and forward+backward
// cost of each architecture in the zoo, the unit cost every federated
// round multiplies.

func benchForward(b *testing.B, build ModelBuilder, in Input) {
	rng := rand.New(rand.NewSource(1))
	m := build(in, 10, rng)
	x := tensor.New(20, in.C, in.H, in.W)
	x.Randn(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, false)
	}
}

func benchTrainStep(b *testing.B, build ModelBuilder, in Input) {
	rng := rand.New(rand.NewSource(2))
	m := build(in, 10, rng)
	opt := NewSGD(0.05, 0.9, 1e-4)
	x := tensor.New(20, in.C, in.H, in.W)
	x.Randn(rng, 1)
	labels := make([]int, 20)
	for i := range labels {
		labels[i] = i % 10
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrads()
		logits := m.Forward(x, true)
		_, d := SoftmaxXent(logits, labels)
		m.BackwardParams(d)
		opt.Step(m)
	}
}

// BenchmarkTrainStep is the headline hot-path benchmark: one full SGD step
// (forward + backward + update) on SmallCNN with a batch of 32, the unit of
// work every federated round multiplies. allocs/op here is the number the
// allocation-free training work is gated on.
func BenchmarkTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := NewSmallCNN(in1, 10, rng)
	opt := NewSGD(0.05, 0.9, 1e-4)
	x := tensor.New(32, in1.C, in1.H, in1.W)
	x.Randn(rng, 1)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = i % 10
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrads()
		logits := m.Forward(x, true)
		_, d := SoftmaxXent(logits, labels)
		m.BackwardParams(d)
		opt.Step(m)
	}
}

// BenchmarkConv2DForward isolates a single convolution layer's training
// forward pass (batch 32), the dominant kernel of the train step.
func BenchmarkConv2DForward(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	dims := tensor.ConvDims{C: 8, H: 16, W: 16, K: 3, Stride: 1, Pad: 1}
	l := NewConv2D("conv", dims, 16, rng)
	x := tensor.New(32, dims.C, dims.H, dims.W)
	x.Randn(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, true)
	}
}

// BenchmarkConv2DBackward isolates the convolution backward pass (batch 32).
func BenchmarkConv2DBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	dims := tensor.ConvDims{C: 8, H: 16, W: 16, K: 3, Stride: 1, Pad: 1}
	l := NewConv2D("conv", dims, 16, rng)
	x := tensor.New(32, dims.C, dims.H, dims.W)
	x.Randn(rng, 1)
	out := l.Forward(x, true)
	dout := tensor.New(out.Shape()...)
	dout.Randn(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Backward(dout)
	}
}

var (
	in1 = Input{C: 1, H: 16, W: 16}
	in3 = Input{C: 3, H: 16, W: 16}
)

// benchForwardBatch measures a large-batch inference pass with the worker
// count pinned (0 = automatic), the serial-vs-parallel comparison for the
// sample-parallel conv forward.
func benchForwardBatch(b *testing.B, workers int) {
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(3))
	m := NewSmallCNN(in1, 10, rng)
	x := tensor.New(64, in1.C, in1.H, in1.W)
	x.Randn(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, false)
	}
}

func BenchmarkSmallCNNForwardBatch64Serial(b *testing.B)   { benchForwardBatch(b, 1) }
func BenchmarkSmallCNNForwardBatch64Parallel(b *testing.B) { benchForwardBatch(b, 0) }

func BenchmarkSmallCNNForward(b *testing.B)   { benchForward(b, NewSmallCNN, in1) }
func BenchmarkSmallCNNTrainStep(b *testing.B) { benchTrainStep(b, NewSmallCNN, in1) }
func BenchmarkLargeCNNTrainStep(b *testing.B) { benchTrainStep(b, NewLargeCNN, in1) }
func BenchmarkFashionCNNTrainStep(b *testing.B) {
	benchTrainStep(b, NewFashionCNN, in1)
}
func BenchmarkMiniVGGForward(b *testing.B)   { benchForward(b, NewMiniVGG, in3) }
func BenchmarkMiniVGGTrainStep(b *testing.B) { benchTrainStep(b, NewMiniVGG, in3) }

// BenchmarkMiniVGGTrainStepFloat32 is the train step of the
// cleanse_cifar_f32 workload of `go run ./bench`: every narrow-map table,
// the re-looped BatchNorm and the float32 element-wise routines at once.
func BenchmarkMiniVGGTrainStepFloat32(b *testing.B) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(2))
	m := NewMiniVGG(in3, 10, rng)
	m.SetBackend(Float32)
	opt := NewSGD(0.05, 0.9, 1e-4)
	x := tensor.New(20, in3.C, in3.H, in3.W)
	x.Randn(rng, 1)
	labels := make([]int, 20)
	for i := range labels {
		labels[i] = i % 10
	}
	dlogits := tensor.New(20, 10)
	step := func() {
		m.ZeroGrads()
		SoftmaxXentInto(dlogits, m.Forward(x, true), labels)
		m.BackwardParams(dlogits)
		opt.Step(m)
	}
	step() // warm the arenas, so allocs/op is the steady state's
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// The per-element costs of the passes DESIGN.md §18 moved off the scalar
// path, reported as ns/elem so that the bench-smoke artifact records the
// figure each was accepted at.

// perElem times f, which makes one pass over elems elements, after one
// untimed call (bench-smoke runs a single iteration).
func perElem(b *testing.B, elems int, f func()) {
	f()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
}

// BenchmarkAddGrad32 is the per-sample f32→f64 accumulation of a conv
// weight gradient (MiniVGG conv8: 32 filters × 288 taps).
func BenchmarkAddGrad32(b *testing.B) {
	const cells = 32 * 288
	rng := rand.New(rand.NewSource(3))
	grad := make([]float64, cells)
	dW := tensor.NewOf[float32](cells)
	for i := range dW.Data {
		dW.Data[i] = float32(rng.NormFloat64())
	}
	perElem(b, cells, func() { tensor.AddWiden(grad, dW.Data) })
}

// benchBatchNorm32 runs MiniVGG's bn2 (16 channels, 8×8 maps, batch 20) on
// the float32 backend.
func benchBatchNorm32(b *testing.B, backward bool) {
	rng := rand.New(rand.NewSource(4))
	l := NewBatchNorm2D("bn", 16)
	x64 := tensor.New(20, 16, 8, 8)
	x64.Randn(rng, 1)
	x, dout := tensor.NewOf[float32](x64.Shape()...), tensor.NewOf[float32](x64.Shape()...)
	x.From64(x64)
	dout.From64(x64)
	l.f32.forward(x, true)
	perElem(b, x.Len(), func() {
		if backward {
			l.f32.backward(dout)
		} else {
			l.f32.forward(x, true)
		}
	})
}

func BenchmarkBatchNormForward32(b *testing.B)  { benchBatchNorm32(b, false) }
func BenchmarkBatchNormBackward32(b *testing.B) { benchBatchNorm32(b, true) }
