package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

func TestSoftmaxXentGradRowsSumToZero(t *testing.T) {
	// The gradient of softmax cross-entropy w.r.t. logits is (p - y)/N;
	// each row must sum to zero because p sums to 1 and y is one-hot.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, c := 1+r.Intn(5), 2+r.Intn(8)
		logits := tensor.New(n, c)
		logits.Randn(r, 3)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = r.Intn(c)
		}
		loss, d := SoftmaxXent(logits, labels)
		if loss < 0 || math.IsNaN(loss) {
			return false
		}
		for s := 0; s < n; s++ {
			sum := 0.0
			for j := 0; j < c; j++ {
				sum += d.At(s, j)
			}
			if math.Abs(sum) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxXentNumericalStability(t *testing.T) {
	logits := tensor.FromSlice([]float64{1000, -1000, 0}, 1, 3)
	loss, d := SoftmaxXent(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %g with huge logits", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("loss = %g, want ~0 when correct logit dominates", loss)
	}
	for i, v := range d.Data {
		if math.IsNaN(v) {
			t.Fatalf("grad[%d] is NaN", i)
		}
	}
}

func TestArgmax(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		0.1, 0.9, 0.0,
		2.0, -1.0, 1.5,
	}, 2, 3)
	got := Argmax(logits)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("Argmax = %v, want [1 0]", got)
	}
}

func TestDenseShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewDense("fc", 4, 7, rng)
	x := tensor.New(3, 4)
	x.Randn(rng, 1)
	out := l.Forward(x, false)
	if out.Dim(0) != 3 || out.Dim(1) != 7 {
		t.Fatalf("output shape %v, want [3 7]", out.Shape())
	}
}

func TestConvOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := tensor.ConvDims{C: 3, H: 16, W: 16, K: 3, Stride: 1, Pad: 1}
	l := NewConv2D("conv", d, 8, rng)
	x := tensor.New(2, 3, 16, 16)
	x.Randn(rng, 1)
	out := l.Forward(x, false)
	want := []int{2, 8, 16, 16}
	for i, dmn := range want {
		if out.Dim(i) != dmn {
			t.Fatalf("output shape %v, want %v", out.Shape(), want)
		}
	}
}

func TestMaxPoolForwardKnown(t *testing.T) {
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 1, 4, 4)
	l := NewMaxPool2D("pool", 2, 2)
	out := l.Forward(x, false)
	want := []float64{4, 8, 12, 16}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("pool output %v, want %v", out.Data, want)
		}
	}
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	x := tensor.FromSlice([]float64{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	l := NewMaxPool2D("pool", 2, 2)
	l.Forward(x, true)
	dout := tensor.FromSlice([]float64{10}, 1, 1, 1, 1)
	dx := l.Backward(dout)
	want := []float64{0, 0, 0, 10}
	for i, w := range want {
		if dx.Data[i] != w {
			t.Fatalf("pool dx %v, want %v", dx.Data, want)
		}
	}
}

func TestReLUForwardBackward(t *testing.T) {
	x := tensor.FromSlice([]float64{-1, 0, 2, -3}, 1, 4)
	l := NewReLU("relu")
	out := l.Forward(x, true)
	wantOut := []float64{0, 0, 2, 0}
	for i, w := range wantOut {
		if out.Data[i] != w {
			t.Fatalf("relu out %v, want %v", out.Data, wantOut)
		}
	}
	dout := tensor.FromSlice([]float64{5, 5, 5, 5}, 1, 4)
	dx := l.Backward(dout)
	wantDx := []float64{0, 0, 5, 0}
	for i, w := range wantDx {
		if dx.Data[i] != w {
			t.Fatalf("relu dx %v, want %v", dx.Data, wantDx)
		}
	}
}

func TestParamsVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewSmallCNN(Input{C: 1, H: 16, W: 16}, 10, rng)
	v := m.ParamsVector()
	if len(v) != m.NumParams() {
		t.Fatalf("vector length %d, want %d", len(v), m.NumParams())
	}
	m2 := NewSmallCNN(Input{C: 1, H: 16, W: 16}, 10, rand.New(rand.NewSource(4)))
	m2.SetParamsVector(v)
	v2 := m2.ParamsVector()
	for i := range v {
		if v[i] != v2[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestAddDeltaVector(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewSmallCNN(Input{C: 1, H: 16, W: 16}, 10, rng)
	before := m.ParamsVector()
	delta := make([]float64, len(before))
	for i := range delta {
		delta[i] = 1
	}
	m.AddDeltaVector(0.5, delta)
	after := m.ParamsVector()
	for i := range after {
		if math.Abs(after[i]-(before[i]+0.5)) > 1e-12 {
			t.Fatalf("delta not applied at %d: %g -> %g", i, before[i], after[i])
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewSmallCNN(Input{C: 1, H: 16, W: 16}, 10, rng)
	c := m.Clone()
	cv := c.ParamsVector()
	// Mutate the original; clone must not change.
	delta := make([]float64, m.NumParams())
	for i := range delta {
		delta[i] = 1
	}
	m.AddDeltaVector(1, delta)
	cv2 := c.ParamsVector()
	for i := range cv {
		if cv[i] != cv2[i] {
			t.Fatal("clone shares parameter storage with original")
		}
	}
}

func TestCloneCarriesPruneMask(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewSmallCNN(Input{C: 1, H: 16, W: 16}, 10, rng)
	conv := m.Layer(0).(*Conv2D)
	conv.PruneUnit(2)
	c := m.Clone()
	cc := c.Layer(0).(*Conv2D)
	if !cc.UnitPruned(2) || cc.PrunedCount() != 1 {
		t.Fatal("clone lost prune mask")
	}
}

func TestPruneUnitZeroesAndPins(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := tensor.ConvDims{C: 1, H: 8, W: 8, K: 3, Stride: 1, Pad: 1}
	conv := NewConv2D("conv", d, 4, rng)
	conv.PruneUnit(1)
	fanIn := conv.W.Value.Dim(1)
	for j := 0; j < fanIn; j++ {
		if conv.W.Value.Data[fanIn+j] != 0 {
			t.Fatal("pruned channel weights not zeroed")
		}
	}
	// A raw parameter overwrite followed by EnforceMask must re-zero.
	conv.W.Value.Data[fanIn] = 9
	conv.EnforceMask()
	if conv.W.Value.Data[fanIn] != 0 {
		t.Fatal("EnforceMask did not re-zero pruned channel")
	}
	// SetParamsVector on the containing model must also re-apply masks.
	m := NewSequential(conv)
	v := m.ParamsVector()
	for i := range v {
		v[i] = 1
	}
	m.SetParamsVector(v)
	if conv.W.Value.Data[fanIn] != 0 {
		t.Fatal("SetParamsVector resurrected pruned channel")
	}
}

func TestDensePruneUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewDense("fc", 3, 4, rng)
	l.PruneUnit(2)
	for i := 0; i < 3; i++ {
		if l.W.Value.Data[i*4+2] != 0 {
			t.Fatal("pruned dense column not zeroed")
		}
	}
	if l.B.Value.Data[2] != 0 {
		t.Fatal("pruned dense bias not zeroed")
	}
	if l.PrunedCount() != 1 || !l.UnitPruned(2) {
		t.Fatal("prune bookkeeping wrong")
	}
	// Pruned unit output must be exactly zero.
	x := tensor.New(2, 3)
	x.Randn(rng, 1)
	out := l.Forward(x, false)
	if out.At(0, 2) != 0 || out.At(1, 2) != 0 {
		t.Fatal("pruned unit produced non-zero output")
	}
}

func TestSGDStepReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := NewSequential(
		NewDense("fc1", 8, 16, rng),
		NewReLU("relu"),
		NewDense("fc2", 16, 3, rng),
	)
	x := tensor.New(16, 8)
	x.Randn(rng, 1)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % 3
	}
	opt := NewSGD(0.1, 0.9, 0)
	first := lossOf(m, x, labels)
	for it := 0; it < 30; it++ {
		m.ZeroGrads()
		logits := m.Forward(x, true)
		_, d := SoftmaxXent(logits, labels)
		m.Backward(d)
		opt.Step(m)
	}
	last := lossOf(m, x, labels)
	if last >= first*0.5 {
		t.Fatalf("SGD failed to reduce loss: %g -> %g", first, last)
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewDense("fc", 4, 4, rng)
	m := NewSequential(l)
	norm0 := 0.0
	for _, v := range l.W.Value.Data {
		norm0 += v * v
	}
	opt := NewSGD(0.1, 0, 0.5)
	// With zero gradients, steps should purely decay the weights.
	for it := 0; it < 5; it++ {
		m.ZeroGrads()
		opt.Step(m)
	}
	norm1 := 0.0
	for _, v := range l.W.Value.Data {
		norm1 += v * v
	}
	if norm1 >= norm0 {
		t.Fatalf("weight decay did not shrink weights: %g -> %g", norm0, norm1)
	}
	// Bias is NoDecay and must be untouched.
	for _, v := range l.B.Value.Data {
		if v != 0 {
			// freshly initialized bias is zero; any change is a bug
			t.Fatal("bias changed under pure weight decay")
		}
	}
}

func TestSGDStepKeepsPrunedUnitsDead(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := tensor.ConvDims{C: 1, H: 6, W: 6, K: 3, Stride: 1, Pad: 1}
	conv := NewConv2D("conv", d, 4, rng)
	m := NewSequential(conv, NewReLU("r"), NewFlatten("f"),
		NewDense("fc", 4*6*6, 3, rng))
	conv.PruneUnit(0)
	opt := NewSGD(0.5, 0.9, 0)
	x := tensor.New(4, 1, 6, 6)
	x.Randn(rng, 1)
	labels := []int{0, 1, 2, 0}
	for it := 0; it < 5; it++ {
		m.ZeroGrads()
		logits := m.Forward(x, true)
		_, dl := SoftmaxXent(logits, labels)
		m.Backward(dl)
		opt.Step(m)
	}
	fanIn := conv.W.Value.Dim(1)
	for j := 0; j < fanIn; j++ {
		if conv.W.Value.Data[j] != 0 {
			t.Fatal("pruned channel came back to life during training")
		}
	}
}

func TestUnitMeanActivations(t *testing.T) {
	// Two samples, two channels, 2x2 spatial.
	act := tensor.FromSlice([]float64{
		// sample 0, channel 0: all 1 (mean 1); channel 1: -1 everywhere (relu -> 0)
		1, 1, 1, 1,
		-1, -1, -1, -1,
		// sample 1, channel 0: 3s; channel 1: 2 and -2 mixed
		3, 3, 3, 3,
		2, -2, 2, -2,
	}, 2, 2, 2, 2)
	sums := make([]float64, 2)
	obs := AccumulateUnitActivations(act, 2, sums)
	if obs != 8 {
		t.Fatalf("%d observations per unit, want 8", obs)
	}
	if got := sums[0] / float64(obs); math.Abs(got-2) > 1e-12 {
		t.Fatalf("unit 0 mean = %g, want 2", got)
	}
	if got := sums[1] / float64(obs); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("unit 1 mean = %g, want 0.5", got)
	}
}

func TestAccumulateMatchesSingleShot(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	act := tensor.New(6, 3, 2, 2)
	act.Randn(rng, 1)
	want := make([]float64, 3)
	n := AccumulateUnitActivations(act, 3, want)
	// Split the batch in two and accumulate.
	half := 3 * 3 * 2 * 2
	a1 := tensor.FromSlice(act.Data[:half], 3, 3, 2, 2)
	a2 := tensor.FromSlice(act.Data[half:], 3, 3, 2, 2)
	sums := make([]float64, 3)
	obs := AccumulateUnitActivations(a1, 3, sums)
	obs += AccumulateUnitActivations(a2, 3, sums)
	if obs != n {
		t.Fatalf("halves counted %d observations, the whole batch %d", obs, n)
	}
	for u := range sums {
		got, single := sums[u]/float64(obs), want[u]/float64(n)
		if math.Abs(got-single) > 1e-12 {
			t.Fatalf("unit %d: accumulated %g vs single-shot %g", u, got, single)
		}
	}
}

func TestModelZooShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	in1 := Input{C: 1, H: 16, W: 16}
	in3 := Input{C: 3, H: 16, W: 16}
	cases := []struct {
		name  string
		model *Sequential
		in    Input
	}{
		{"small", NewSmallCNN(in1, 10, rng), in1},
		{"large", NewLargeCNN(in1, 10, rng), in1},
		{"fashion", NewFashionCNN(in1, 10, rng), in1},
		{"minivgg", NewMiniVGG(in3, 10, rng), in3},
	}
	for _, tc := range cases {
		x := tensor.New(2, tc.in.C, tc.in.H, tc.in.W)
		x.Randn(rng, 1)
		out := tc.model.Forward(x, false)
		if out.Dim(0) != 2 || out.Dim(1) != 10 {
			t.Fatalf("%s: output shape %v, want [2 10]", tc.name, out.Shape())
		}
		if tc.model.LastConvIndex() < 0 {
			t.Fatalf("%s: no conv layer found", tc.name)
		}
		// Training round-trip must not panic and must produce finite loss.
		tc.model.ZeroGrads()
		logits := tc.model.Forward(x, true)
		loss, d := SoftmaxXent(logits, []int{0, 1})
		if math.IsNaN(loss) {
			t.Fatalf("%s: NaN loss", tc.name)
		}
		tc.model.Backward(d)
	}
}

func TestLastConvIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := NewFashionCNN(Input{C: 1, H: 16, W: 16}, 10, rng)
	idx := m.LastConvIndex()
	conv, ok := m.Layer(idx).(*Conv2D)
	if !ok {
		t.Fatalf("layer %d is not Conv2D", idx)
	}
	if conv.Name() != "conv3" {
		t.Fatalf("last conv = %s, want conv3", conv.Name())
	}
	noConv := NewSequential(NewDense("fc", 4, 2, rng))
	if noConv.LastConvIndex() != -1 {
		t.Fatal("LastConvIndex on dense-only model should be -1")
	}
}
