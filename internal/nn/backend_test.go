package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// Tolerance harness for the float32 backend. The float64 path is the
// reference; the float32 path computes the same graph with float32
// activations and weights, so outputs agree to float32 resolution scaled
// by the depth of the accumulation chains. The bounds asserted here are
// the ones documented in DESIGN.md §13: forward activations to ~1e-4
// relative, gradients and a full optimizer step to ~1e-3 relative.

// relDiff is |a-b| scaled by max(1, |a|, |b|), so tiny absolute noise on
// near-zero values does not register as huge relative error.
func relDiff(a, b float64) float64 {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) / scale
}

func maxRelDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := relDiff(a[i], b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestParseBackend(t *testing.T) {
	cases := []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"float64", Float64, true},
		{"f64", Float64, true},
		{"", Float64, true},
		{"float32", Float32, true},
		{"f32", Float32, true},
		{"FLOAT32", Float32, true},
		{"bfloat16", 0, false},
	}
	for _, c := range cases {
		got, err := ParseBackend(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseBackend(%q) succeeded, want error", c.in)
		}
	}
	if Float64.String() != "float64" || Float32.String() != "float32" {
		t.Fatalf("Backend.String: %q/%q", Float64.String(), Float32.String())
	}
}

// Forward on the float32 backend matches float64 to ~1e-4 relative on
// every architecture in the zoo, train and eval mode.
func TestFloat32ForwardTolerance(t *testing.T) {
	builders := map[string]ModelBuilder{
		"small":   NewSmallCNN,
		"large":   NewLargeCNN,
		"fashion": NewFashionCNN,
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			m := build(in1, 10, rng)
			x := tensor.New(8, in1.C, in1.H, in1.W)
			x.Randn(rng, 1)
			for _, train := range []bool{false, true} {
				m.SetBackend(Float64)
				ref := m.Forward(x, train).Clone()
				m.SetBackend(Float32)
				got := m.Forward(x, train)
				if d := maxRelDiff(ref.Data, got.Data); d > 1e-4 {
					t.Errorf("train=%v: max relative diff %g > 1e-4", train, d)
				}
			}
		})
	}
}

// Backward on the float32 backend produces parameter gradients and input
// gradients within ~1e-3 relative of the float64 path.
func TestFloat32BackwardTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := NewSmallCNN(in1, 10, rng)
	x := tensor.New(8, in1.C, in1.H, in1.W)
	x.Randn(rng, 1)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = i % 10
	}

	grads := func() []float64 {
		m.ZeroGrads()
		logits := m.Forward(x, true)
		_, d := SoftmaxXent(logits, labels)
		m.Backward(d)
		var g []float64
		for _, p := range m.Params() {
			g = append(g, p.Grad.Data...)
		}
		return g
	}

	m.SetBackend(Float64)
	ref := grads()
	m.SetBackend(Float32)
	got := grads()
	if len(ref) != len(got) {
		t.Fatalf("gradient vector length %d vs %d", len(ref), len(got))
	}
	if d := maxRelDiff(ref, got); d > 1e-3 {
		t.Errorf("max relative gradient diff %g > 1e-3", d)
	}
}

// BackwardParams — the training loops' backward — must produce parameter
// gradients bit-identical to the full Backward on both backends; only the
// never-consumed first-layer input gradient is allowed to differ (by not
// existing).
func TestBackwardParamsGradBitIdentity(t *testing.T) {
	for _, backend := range []Backend{Float64, Float32} {
		t.Run(backend.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			m := NewSmallCNN(in1, 10, rng)
			m2 := m.Clone()
			m.SetBackend(backend)
			m2.SetBackend(backend)
			x := tensor.New(8, in1.C, in1.H, in1.W)
			x.Randn(rng, 1)
			labels := make([]int, 8)
			for i := range labels {
				labels[i] = i % 10
			}

			m.ZeroGrads()
			_, d := SoftmaxXent(m.Forward(x, true), labels)
			m.Backward(d)

			m2.ZeroGrads()
			_, d2 := SoftmaxXent(m2.Forward(x, true), labels)
			m2.BackwardParams(d2)

			ps, ps2 := m.Params(), m2.Params()
			for pi := range ps {
				for i := range ps[pi].Grad.Data {
					if math.Float64bits(ps[pi].Grad.Data[i]) != math.Float64bits(ps2[pi].Grad.Data[i]) {
						t.Fatalf("param %d grad[%d]: %g (Backward) vs %g (BackwardParams)",
							pi, i, ps[pi].Grad.Data[i], ps2[pi].Grad.Data[i])
					}
				}
			}
		})
	}
}

// A short training run (three full SGD steps) on the float32 backend lands
// within ~1e-3 relative of the float64 parameters — the float64 optimizer
// state keeps the backends from drifting apart step over step.
func TestFloat32TrainStepTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ref := NewSmallCNN(in1, 10, rng)
	f32 := ref.Clone()
	f32.SetBackend(Float32)

	x := tensor.New(8, in1.C, in1.H, in1.W)
	x.Randn(rng, 1)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = i % 10
	}
	step := func(m *Sequential, opt *SGD) {
		m.ZeroGrads()
		logits := m.Forward(x, true)
		_, d := SoftmaxXent(logits, labels)
		m.Backward(d)
		opt.Step(m)
	}
	optA := NewSGD(0.05, 0.9, 1e-4)
	optB := NewSGD(0.05, 0.9, 1e-4)
	for i := 0; i < 3; i++ {
		step(ref, optA)
		step(f32, optB)
	}
	a, b := ref.ParamsVector(), f32.ParamsVector()
	if d := maxRelDiff(a, b); d > 1e-3 {
		t.Errorf("max relative parameter diff after 3 steps %g > 1e-3", d)
	}
}

// The float32 backend obeys the same serial-vs-parallel bit-identity
// contract as float64: the widened outputs and the float64 parameter
// gradients are bit-for-bit equal at any worker count.
func TestFloat32SerialParallelIdentity(t *testing.T) {
	run := func(workers int) (out *tensor.Tensor, grads []float64) {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		rng := rand.New(rand.NewSource(14))
		m := NewSmallCNN(in1, 10, rng)
		m.SetBackend(Float32)
		x := tensor.New(32, in1.C, in1.H, in1.W)
		x.Randn(rng, 1)
		labels := make([]int, 32)
		for i := range labels {
			labels[i] = i % 10
		}
		m.ZeroGrads()
		logits := m.Forward(x, true)
		out = logits.Clone()
		_, d := SoftmaxXent(logits, labels)
		m.Backward(d)
		for _, p := range m.Params() {
			grads = append(grads, p.Grad.Data...)
		}
		return out, grads
	}
	refOut, refGrads := run(1)
	for _, workers := range []int{2, 3, 8} {
		out, grads := run(workers)
		for i := range refOut.Data {
			if math.Float64bits(out.Data[i]) != math.Float64bits(refOut.Data[i]) {
				t.Fatalf("workers=%d: logit %d differs: %v vs %v", workers, i, out.Data[i], refOut.Data[i])
			}
		}
		for i := range refGrads {
			if math.Float64bits(grads[i]) != math.Float64bits(refGrads[i]) {
				t.Fatalf("workers=%d: grad %d differs: %v vs %v", workers, i, grads[i], refGrads[i])
			}
		}
	}
}

// ForwardTo/ForwardFrom on the float32 backend compose to exactly the full
// Forward: the float64 boundary between the halves widens and re-narrows
// losslessly, so the split replay is bit-identical.
func TestFloat32ForwardSplitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := NewSmallCNN(in1, 10, rng)
	m.SetBackend(Float32)
	x := tensor.New(4, in1.C, in1.H, in1.W)
	x.Randn(rng, 1)
	full := m.Forward(x, false).Clone()
	for hi := 1; hi < m.NumLayers(); hi++ {
		mid := m.ForwardTo(hi, x).Clone()
		got := m.ForwardFrom(hi, mid)
		for i := range full.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(full.Data[i]) {
				t.Fatalf("split at %d: output %d differs: %v vs %v", hi, i, got.Data[i], full.Data[i])
			}
		}
	}
}

// ForwardTo on the float32 backend returns every layer's output with the
// same shape as the float64 path, within forward tolerance.
func TestFloat32ForwardToTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := NewSmallCNN(in1, 10, rng)
	x := tensor.New(4, in1.C, in1.H, in1.W)
	x.Randn(rng, 1)
	// Each ForwardTo output is a loan the next pass overwrites.
	outputs := func() []*tensor.Tensor {
		acts := make([]*tensor.Tensor, m.NumLayers())
		for i := range acts {
			acts[i] = m.ForwardTo(i+1, x).Clone()
		}
		return acts
	}
	m.SetBackend(Float64)
	refCopies := outputs()
	m.SetBackend(Float32)
	got := outputs()
	if len(got) != len(refCopies) {
		t.Fatalf("activation count %d vs %d", len(got), len(refCopies))
	}
	for i := range got {
		if fmt.Sprint(got[i].Shape()) != fmt.Sprint(refCopies[i].Shape()) {
			t.Fatalf("layer %d: shape %v vs %v", i, got[i].Shape(), refCopies[i].Shape())
		}
		if d := maxRelDiff(refCopies[i].Data, got[i].Data); d > 1e-4 {
			t.Errorf("layer %d: max relative diff %g > 1e-4", i, d)
		}
	}
}

// TestInferenceOutputsAreLoans pins the one ownership rule for pass outputs
// (DESIGN.md §8) in both precisions: a second inference pass returns the
// first one's buffers — Forward, ForwardTo and ForwardFrom — filled with
// its own input's values, the ones a fresh clone computes.
func TestInferenceOutputsAreLoans(t *testing.T) {
	for _, backend := range []Backend{Float64, Float32} {
		rng := rand.New(rand.NewSource(19))
		m := NewSmallCNN(in1, 10, rng)
		m.SetBackend(backend)
		fresh := m.Clone()
		x := tensor.New(4, in1.C, in1.H, in1.W)
		y := tensor.New(4, in1.C, in1.H, in1.W)
		x.Randn(rng, 1)
		y.Randn(rng, 1)
		li := m.LastConvIndex()
		check := func(what string, first, second, want *tensor.Tensor) {
			t.Helper()
			if &first.Data[0] != &second.Data[0] {
				t.Errorf("%v %s: the second pass returned a new buffer", backend, what)
			}
			if !second.Equal(want, 0) {
				t.Errorf("%v %s: the second pass did not compute its own input", backend, what)
			}
		}
		first := m.Forward(x, false)
		check("Forward", first, m.Forward(y, false), fresh.Forward(y, false))
		first = m.ForwardTo(li, x)
		check("ForwardTo", first, m.ForwardTo(li, y), fresh.ForwardTo(li, y))
		bx, by := first.Clone(), fresh.ForwardTo(li, y).Clone()
		first = m.ForwardFrom(li, bx)
		check("ForwardFrom", first, m.ForwardFrom(li, by), fresh.ForwardFrom(li, by))
	}
}

// Pruned units stay exactly zero under float32 training: masked float64
// weights narrow to 0.0f, produce zero activations, and the gradient mask
// runs after the float32 gradients are widened back.
func TestFloat32PruneMaskRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := NewSmallCNN(in1, 10, rng)
	m.SetBackend(Float32)
	li := m.LastConvIndex()
	m.PruneModelUnit(li, 0)
	m.PruneModelUnit(li, 2)

	x := tensor.New(8, in1.C, in1.H, in1.W)
	x.Randn(rng, 1)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = i % 10
	}
	opt := NewSGD(0.05, 0.9, 1e-4)
	for i := 0; i < 2; i++ {
		m.ZeroGrads()
		logits := m.Forward(x, true)
		_, d := SoftmaxXent(logits, labels)
		m.Backward(d)
		opt.Step(m)
	}
	conv, ok := m.Layer(li).(*Conv2D)
	if !ok {
		t.Fatalf("layer %d is %T, want *Conv2D", li, m.Layer(li))
	}
	fanIn := len(conv.W.Value.Data) / conv.Filters()
	for _, u := range []int{0, 2} {
		for j := 0; j < fanIn; j++ {
			if v := conv.W.Value.Data[u*fanIn+j]; v != 0 {
				t.Fatalf("pruned filter %d weight %d drifted to %v", u, j, v)
			}
		}
		if v := conv.B.Value.Data[u]; v != 0 {
			t.Fatalf("pruned filter %d bias drifted to %v", u, v)
		}
	}
}

// Clone preserves the backend, and eval passes run before a train step do
// not corrupt the float32 training caches or scratch (defense loops score
// the model between steps). Eval between a training forward and its
// backward is illegal on both backends — layers drop their training caches
// on any eval pass.
func TestFloat32CloneAndInterleavedEval(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	m := NewSmallCNN(in1, 10, rng)
	m.SetBackend(Float32)
	c := m.Clone()
	if c.Backend() != Float32 {
		t.Fatalf("clone backend = %v, want Float32", c.Backend())
	}

	x := tensor.New(4, in1.C, in1.H, in1.W)
	x.Randn(rng, 1)
	labels := []int{0, 1, 2, 3}

	// Reference: a plain train step.
	ref := m.Clone()
	ref.ZeroGrads()
	logits := ref.Forward(x, true)
	_, d := SoftmaxXent(logits, labels)
	ref.Backward(d)

	// Same step preceded by eval passes (as a defense loop that scores the
	// model between steps does): the eval scratch must not corrupt the
	// training-path caches or results.
	m.Forward(x, false)
	m.ForwardTo(m.LastConvIndex()+1, x)
	m.ZeroGrads()
	logits = m.Forward(x, true)
	_, d2 := SoftmaxXent(logits, labels)
	m.Backward(d2)

	refParams, gotParams := ref.Params(), m.Params()
	for i := range refParams {
		for j := range refParams[i].Grad.Data {
			a, b := refParams[i].Grad.Data[j], gotParams[i].Grad.Data[j]
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("param %s grad %d differs after interleaved eval: %v vs %v",
					refParams[i].Name, j, a, b)
			}
		}
	}
}

// BenchmarkTrainStepFloat32 is BenchmarkTrainStep on the float32 backend;
// beside the float64 one it reads the cross-precision speedup.
func BenchmarkTrainStepFloat32(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := NewSmallCNN(in1, 10, rng)
	m.SetBackend(Float32)
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
