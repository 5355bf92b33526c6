package nn

import (
	"fmt"
	"math/rand"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// Dense is a fully connected layer over (N, In) batches. Each output unit is
// one "neuron" in the paper's pruning terminology.
type Dense struct {
	name    string
	in, out int

	// W has shape (In, Out); B has shape (Out).
	W, B *Param

	// unitMask prunes output units: unit u is column u of W and B[u].
	unitMask

	// f64 and f32 are the layer's arithmetic in each precision.
	f64 densePass[float64]
	f32 densePass[float32]
}

// densePass is Dense's forward and backward in E.
type densePass[E tensor.Elem] struct {
	l *Dense

	// x caches the input of the last training forward pass.
	x *tensor.Of[E]

	// scratch holds the reusable train-mode output, the dW gradient
	// scratch, the returned dx and the float32 shadow weights, so a warm
	// step allocates nothing. Not cloned or serialized.
	scratch tensor.ArenaOf[E]
}

var _ Prunable = (*Dense)(nil)

// NewDense builds a fully connected layer with He-normal initialization.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: %s: non-positive dims %d×%d", name, in, out))
	}
	l := &Dense{
		name: name,
		in:   in,
		out:  out,
		W:    newParam(name+".W", in, out),
		B:    newParam(name+".B", out),
	}
	l.B.NoDecay = true
	heInit(l.W.Value, in, rng)
	return l.bind()
}

// bind points the layer's passes and its mask at it.
func (l *Dense) bind() *Dense {
	l.f64.l, l.f32.l = l, l
	l.bindUnits(l.name, l.out, unitSpan{l.W, 1, l.out, l.in}, unitSpan{l.B, 1, 1, 1})
	return l
}

// Name implements Layer.
func (l *Dense) Name() string { return l.name }

// In returns the input width.
func (l *Dense) In() int { return l.in }

// Out returns the output width.
func (l *Dense) Out() int { return l.out }

// Forward implements Layer for x of shape (N, In).
func (l *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return l.f64.forward(x, train) }

// Backward implements Layer.
func (l *Dense) Backward(dout *tensor.Tensor) *tensor.Tensor { return l.f64.backward(dout) }

// passes implements Layer.
func (l *Dense) passes() (pass[float64], pass[float32]) { return &l.f64, &l.f32 }

func (p *densePass[E]) forward(x *tensor.Of[E], train bool) *tensor.Of[E] {
	l := p.l
	if x.Rank() != 2 || x.Dim(1) != l.in {
		panic(fmt.Sprintf("nn: %s: input shape %v, want [N %d]", l.name, x.Shape(), l.in))
	}
	n := x.Dim(0)
	w := weights(&p.scratch, "W", l.W, true)
	b := weights(&p.scratch, "B", l.B, true)
	out := p.scratch.Get(outSlot(train), n, l.out)
	p.x = nil
	if train {
		p.x = x
	}
	tensor.MatMulInto(out, x, w)
	for s := 0; s < n; s++ {
		tensor.Add(out.Data[s*l.out:(s+1)*l.out], b.Data)
	}
	return out
}

// backward reuses the dW scratch and the returned dx, so a warm step
// allocates nothing.
func (p *densePass[E]) backward(dout *tensor.Of[E]) *tensor.Of[E] {
	l := p.l
	if p.x == nil {
		panic(fmt.Sprintf("nn: %s: Backward without training Forward", l.name))
	}
	// dW += xᵀ · dout
	dW := p.scratch.Get("dW", l.in, l.out)
	tensor.MatMulTransAInto(dW, p.x, dout)
	tensor.AddWiden(l.W.Grad.Data, dW.Data)
	// db += column sums of dout
	n := dout.Dim(0)
	for s := 0; s < n; s++ {
		tensor.AddWiden(l.B.Grad.Data, dout.Data[s*l.out:(s+1)*l.out])
	}
	l.maskGrads()
	// dx = dout · Wᵀ
	dx := p.scratch.Get("dx", n, l.in)
	tensor.MatMulTransBInto(dx, dout, weights(&p.scratch, "W", l.W, false))
	return dx
}

// Params implements Layer.
func (l *Dense) Params() []*Param { return []*Param{l.W, l.B} }

// CloneLayer implements Layer.
func (l *Dense) CloneLayer() Layer {
	c := &Dense{
		name:     l.name,
		in:       l.in,
		out:      l.out,
		W:        l.W.clone(),
		B:        l.B.clone(),
		unitMask: unitMask{pruned: append([]bool(nil), l.pruned...)},
	}
	return c.bind()
}
