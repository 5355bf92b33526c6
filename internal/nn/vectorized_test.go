package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// Tests of the passes DESIGN.md §18 moved off the scalar path, at the layer
// level: the re-looped BatchNorm against a verbatim copy of the
// channel-outer loops it replaced, the sharing of the conv tables between
// clones, and the ReLU's trained marker.

// refBatchNorm is BatchNorm2D's state and arithmetic as of the commit
// before the reductions were re-looped and the element-wise passes moved
// into tensor: one channel at a time, one accumulator, the normalize and
// dx loops inline. Forward64/Backward64 and Forward32/Backward32 are the
// loop bodies of the old methods, unchanged but for the receiver.
type refBatchNorm struct {
	channels      int
	momentum, eps float64
	frozen        bool

	gamma, beta, runMean, runVar []float64
	gammaGrad, betaGrad          []float64

	invStd []float64
	n, hw  int
}

func refFrom(l *BatchNorm2D) *refBatchNorm {
	cp := func(v []float64) []float64 { return append([]float64(nil), v...) }
	return &refBatchNorm{
		channels: l.channels, momentum: l.momentum, eps: l.eps, frozen: l.frozen,
		gamma: cp(l.Gamma.Value.Data), beta: cp(l.Beta.Value.Data),
		runMean: cp(l.RunMean.Value.Data), runVar: cp(l.RunVar.Value.Data),
		gammaGrad: cp(l.Gamma.Grad.Data), betaGrad: cp(l.Beta.Grad.Data),
		invStd: make([]float64, l.channels),
	}
}

func (l *refBatchNorm) Forward64(out, xhat, x []float64, n, hw int, train bool) {
	if train {
		l.n, l.hw = n, hw
	}
	cnt := float64(n * hw)
	for c := 0; c < l.channels; c++ {
		var mean, variance float64
		if train && !l.frozen {
			sum := 0.0
			for s := 0; s < n; s++ {
				base := (s*l.channels + c) * hw
				for i := 0; i < hw; i++ {
					sum += x[base+i]
				}
			}
			mean = sum / cnt
			ss := 0.0
			for s := 0; s < n; s++ {
				base := (s*l.channels + c) * hw
				for i := 0; i < hw; i++ {
					d := x[base+i] - mean
					ss += d * d
				}
			}
			variance = ss / cnt
			l.runMean[c] = l.momentum*l.runMean[c] + (1-l.momentum)*mean
			l.runVar[c] = l.momentum*l.runVar[c] + (1-l.momentum)*variance
		} else {
			mean, variance = l.runMean[c], l.runVar[c]
			if variance < 0 {
				variance = 0
			}
		}
		inv := 1 / math.Sqrt(variance+l.eps)
		g, b := l.gamma[c], l.beta[c]
		for s := 0; s < n; s++ {
			base := (s*l.channels + c) * hw
			for i := 0; i < hw; i++ {
				xh := (x[base+i] - mean) * inv
				if train {
					xhat[base+i] = xh
				}
				out[base+i] = g*xh + b
			}
		}
		if train {
			l.invStd[c] = inv
		}
	}
}

func (l *refBatchNorm) Backward64(dx, dout, xhat []float64) {
	n, hw := l.n, l.hw
	cnt := float64(n * hw)
	if l.frozen {
		for c := 0; c < l.channels; c++ {
			g := l.gamma[c] * l.invStd[c]
			for s := 0; s < n; s++ {
				base := (s*l.channels + c) * hw
				for i := 0; i < hw; i++ {
					dx[base+i] = dout[base+i] * g
				}
			}
		}
		return
	}
	for c := 0; c < l.channels; c++ {
		var dg, db, sumDxh, sumDxhXh float64
		for s := 0; s < n; s++ {
			base := (s*l.channels + c) * hw
			for i := 0; i < hw; i++ {
				d := dout[base+i]
				xh := xhat[base+i]
				dg += d * xh
				db += d
			}
		}
		l.gammaGrad[c] += dg
		l.betaGrad[c] += db
		g := l.gamma[c]
		sumDxh = db * g
		sumDxhXh = dg * g
		inv := l.invStd[c]
		for s := 0; s < n; s++ {
			base := (s*l.channels + c) * hw
			for i := 0; i < hw; i++ {
				dxh := dout[base+i] * g
				xh := xhat[base+i]
				dx[base+i] = inv / cnt * (cnt*dxh - sumDxh - xh*sumDxhXh)
			}
		}
	}
}

func (l *refBatchNorm) Forward32(out, xhat, x []float32, n, hw int, train bool) {
	if train {
		l.n, l.hw = n, hw
	}
	cnt := float64(n * hw)
	for c := 0; c < l.channels; c++ {
		var mean, variance float64
		if train && !l.frozen {
			sum := 0.0
			for s := 0; s < n; s++ {
				base := (s*l.channels + c) * hw
				for i := 0; i < hw; i++ {
					sum += float64(x[base+i])
				}
			}
			mean = sum / cnt
			ss := 0.0
			for s := 0; s < n; s++ {
				base := (s*l.channels + c) * hw
				for i := 0; i < hw; i++ {
					d := float64(x[base+i]) - mean
					ss += d * d
				}
			}
			variance = ss / cnt
			l.runMean[c] = l.momentum*l.runMean[c] + (1-l.momentum)*mean
			l.runVar[c] = l.momentum*l.runVar[c] + (1-l.momentum)*variance
		} else {
			mean, variance = l.runMean[c], l.runVar[c]
			if variance < 0 {
				variance = 0
			}
		}
		inv := 1 / math.Sqrt(variance+l.eps)
		mean32, inv32 := float32(mean), float32(inv)
		g, b := float32(l.gamma[c]), float32(l.beta[c])
		for s := 0; s < n; s++ {
			base := (s*l.channels + c) * hw
			for i := 0; i < hw; i++ {
				xh := (x[base+i] - mean32) * inv32
				if train {
					xhat[base+i] = xh
				}
				out[base+i] = g*xh + b
			}
		}
		if train {
			l.invStd[c] = inv
		}
	}
}

func (l *refBatchNorm) Backward32(dx, dout, xhat []float32) {
	n, hw := l.n, l.hw
	cnt := float64(n * hw)
	if l.frozen {
		for c := 0; c < l.channels; c++ {
			g := float32(l.gamma[c] * l.invStd[c])
			for s := 0; s < n; s++ {
				base := (s*l.channels + c) * hw
				for i := 0; i < hw; i++ {
					dx[base+i] = dout[base+i] * g
				}
			}
		}
		return
	}
	for c := 0; c < l.channels; c++ {
		var dg, db float64
		for s := 0; s < n; s++ {
			base := (s*l.channels + c) * hw
			for i := 0; i < hw; i++ {
				d := float64(dout[base+i])
				xh := float64(xhat[base+i])
				dg += d * xh
				db += d
			}
		}
		l.gammaGrad[c] += dg
		l.betaGrad[c] += db
		g := l.gamma[c]
		sumDxh := db * g
		sumDxhXh := dg * g
		inv := l.invStd[c]
		g32 := float32(g)
		scale := float32(inv / cnt)
		cnt32 := float32(cnt)
		sumDxh32, sumDxhXh32 := float32(sumDxh), float32(sumDxhXh)
		for s := 0; s < n; s++ {
			base := (s*l.channels + c) * hw
			for i := 0; i < hw; i++ {
				dxh := dout[base+i] * g32
				xh := xhat[base+i]
				dx[base+i] = scale * (cnt32*dxh - sumDxh32 - xh*sumDxhXh32)
			}
		}
	}
}

// sameBits reports the first index at which two slices differ in any bit.
func sameBits[E tensor.Elem](got, want []E) (int, bool) {
	for i := range got {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			return i, false
		}
	}
	return 0, len(got) == len(want)
}

func mustMatch[E tensor.Elem](t *testing.T, what, ctx string, got, want []E) {
	t.Helper()
	if i, ok := sameBits(got, want); !ok {
		t.Fatalf("%s %s: element %d = %v, reference loops %v", ctx, what, i, got[i], want[i])
	}
}

// checkBatchNormAgainstReference drives one layer and its reference copy
// through a training forward+backward, a second training step (so the
// running statistics and the accumulated gradients have history), and an
// inference forward, comparing every output by bits.
func checkBatchNormAgainstReference(t *testing.T, rng *rand.Rand, n, ch, hw int, frozen, f32 bool) {
	t.Helper()
	ctx := fmt.Sprintf("n=%d C=%d hw=%d frozen=%v float32=%v", n, ch, hw, frozen, f32)
	l := NewBatchNorm2D("bn", ch)
	for c := 0; c < ch; c++ {
		l.Gamma.Value.Data[c] = 1 + 0.3*rng.NormFloat64()
		l.Beta.Value.Data[c] = 0.2 * rng.NormFloat64()
		l.RunMean.Value.Data[c] = 0.1 * rng.NormFloat64()
		l.RunVar.Value.Data[c] = 1 + 0.2*rng.Float64()
	}
	if ch > 2 {
		l.RunVar.Value.Data[1] = -0.5 // the clamp
	}
	if frozen {
		l.Freeze()
	}
	ref := refFrom(l)

	h, w := hw, 1
	if hw%4 == 0 {
		h, w = hw/4, 4
	}
	size := n * ch * hw
	step := func(train bool) {
		x, dout := tensor.New(n, ch, h, w), tensor.New(n, ch, h, w)
		x.Randn(rng, 1.5)
		dout.Randn(rng, 1)
		if !f32 {
			wantOut, wantXhat, wantDx := make([]float64, size), make([]float64, size), make([]float64, size)
			out := l.Forward(x, train)
			ref.Forward64(wantOut, wantXhat, x.Data, n, hw, train)
			mustMatch(t, "out", ctx, out.Data, wantOut)
			if train {
				mustMatch(t, "xhat", ctx, l.f64.xhat.Data, wantXhat)
				dx := l.Backward(dout)
				ref.Backward64(wantDx, dout.Data, wantXhat)
				mustMatch(t, "dx", ctx, dx.Data, wantDx)
			}
		} else {
			xf, dout32 := tensor.NewOf[float32](n, ch, h, w), tensor.NewOf[float32](n, ch, h, w)
			xf.From64(x)
			dout32.From64(dout)
			wantOut, wantXhat, wantDx := make([]float32, size), make([]float32, size), make([]float32, size)
			out := l.f32.forward(xf, train)
			ref.Forward32(wantOut, wantXhat, xf.Data, n, hw, train)
			mustMatch(t, "out", ctx, out.Data, wantOut)
			if train {
				mustMatch(t, "xhat", ctx, l.f32.xhat.Data, wantXhat)
				dx := l.f32.backward(dout32)
				ref.Backward32(wantDx, dout32.Data, wantXhat)
				mustMatch(t, "dx", ctx, dx.Data, wantDx)
			}
		}
		mustMatch(t, "running mean", ctx, l.RunMean.Value.Data, ref.runMean)
		mustMatch(t, "running variance", ctx, l.RunVar.Value.Data, ref.runVar)
		mustMatch(t, "dgamma", ctx, l.Gamma.Grad.Data, ref.gammaGrad)
		mustMatch(t, "dbeta", ctx, l.Beta.Grad.Data, ref.betaGrad)
		if train {
			mustMatch(t, "invStd", ctx, l.invStd, ref.invStd)
		}
	}
	step(true)
	step(true)
	step(false)
	step(true) // a training pass after an inference pass
}

func TestBatchNormMatchesChannelOuterLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 2, 20} {
		for _, ch := range []int{1, 3, 8, 32} {
			for _, hw := range []int{1, 4, 64, 256} {
				for _, frozen := range []bool{false, true} {
					for _, f32 := range []bool{false, true} {
						checkBatchNormAgainstReference(t, rng, n, ch, hw, frozen, f32)
					}
				}
			}
		}
	}
}

// convLayers returns a model's convolution layers.
func convLayers(m *Sequential) []*Conv2D {
	var cs []*Conv2D
	for _, l := range m.layers {
		if c, ok := l.(*Conv2D); ok {
			cs = append(cs, c)
		}
	}
	return cs
}

// TestConvTablesSharedNotCloned: a clone holds the template's tables — the same pointer, so nothing
// is rebuilt per client — and only the narrow-map layers have one.
func TestConvTablesSharedNotCloned(t *testing.T) {
	m := NewMiniVGG(in3, 10, rand.New(rand.NewSource(31)))
	tmpl := convLayers(m)
	narrow := 0
	for _, c := range tmpl {
		if want := c.dims.OutW() <= 8; (c.index != nil) != want {
			t.Errorf("%s (output width %d): table present = %v, want %v", c.name, c.dims.OutW(), c.index != nil, want)
		}
		if c.index != nil {
			narrow++
		}
	}
	if narrow == 0 {
		t.Fatal("MiniVGG has no narrow-map convolution; the test checks nothing")
	}
	clone := m.Clone()
	for i, c := range tmpl {
		if got := convLayers(clone)[i].index; got != c.index {
			t.Errorf("%s: clone holds table %p, template %p", c.name, got, c.index)
		}
	}
}

// TestClonesTrainConcurrentlyOnSharedTables trains two clones of one
// template at the same time, on both backends, and compares each with a
// clone trained alone. Under -race a write to a shared table after
// publication is a reported race; without it a corrupted table shows as a
// parameter mismatch.
func TestClonesTrainConcurrentlyOnSharedTables(t *testing.T) {
	for _, backend := range []Backend{Float64, Float32} {
		tmpl := NewMiniVGG(in3, 10, rand.New(rand.NewSource(33)))
		tmpl.SetBackend(backend)
		train := func(m *Sequential, seed int64) []float64 {
			rng := rand.New(rand.NewSource(seed))
			opt := NewSGD(0.05, 0.9, 1e-4)
			x := tensor.New(6, in3.C, in3.H, in3.W)
			labels := []int{0, 1, 2, 3, 4, 5}
			for step := 0; step < 3; step++ {
				x.Randn(rng, 1)
				m.ZeroGrads()
				_, d := SoftmaxXent(m.Forward(x, true), labels)
				m.Backward(d) // Backward, not BackwardParams: every layer's col2im runs
				opt.Step(m)
			}
			return m.ParamsVector()
		}
		want := [2][]float64{train(tmpl.Clone(), 1), train(tmpl.Clone(), 2)}
		var got [2][]float64
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = train(tmpl.Clone(), int64(i+1))
			}(i)
		}
		wg.Wait()
		for i := range got {
			if j, ok := sameBits(got[i], want[i]); !ok {
				t.Fatalf("%v clone %d: parameter %d = %v trained beside another clone, %v alone", backend, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestReLUBackwardNeedsTrainingForward: the trained marker keeps the
// contract the per-element mask used to carry.
func TestReLUBackwardNeedsTrainingForward(t *testing.T) {
	x := tensor.FromSlice([]float64{-1, 2}, 1, 2)
	xf := tensor.NewOf[float32](1, 2)
	xf.From64(x)
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	l := NewReLU("relu")
	mustPanic("Backward on a fresh layer", func() { l.Backward(x) })
	l.Forward(x, true)
	l.Forward(x, false)
	mustPanic("Backward after an inference Forward", func() { l.Backward(x) })
	l.f32.forward(xf, true)
	l.f32.forward(xf, false)
	mustPanic("Backward32 after an inference Forward32", func() { l.f32.backward(xf) })
	if c := l.CloneLayer().(*ReLU); c.trained {
		t.Error("a clone starts out trained")
	}
}

// checkAddRowSums compares the four-rows-abreast bias-gradient sums with
// one serial chain per row, for row counts on both sides of the grouping.
func checkAddRowSums[E tensor.Elem](t *testing.T, rng *rand.Rand) {
	for _, rows := range []int{1, 3, 4, 5, 8, 11} {
		for _, spatial := range []int{1, 4, 63, 256} {
			m := make([]E, rows*spatial)
			for i := range m {
				m[i] = E(rng.NormFloat64())
			}
			got, want := make([]float64, rows), make([]float64, rows)
			for f := range got {
				got[f] = rng.NormFloat64()
				want[f] = got[f]
				var s E
				for _, v := range m[f*spatial : (f+1)*spatial] {
					s += v
				}
				want[f] += float64(s)
			}
			addRowSums(got, m, spatial)
			mustMatch(t, "row sums", fmt.Sprintf("rows=%d spatial=%d", rows, spatial), got, want)
		}
	}
}

func TestAddRowSumsMatchesSerialChains(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	checkAddRowSums[float64](t, rng)
	checkAddRowSums[float32](t, rng)
}
