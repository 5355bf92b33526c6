package nn

import "github.com/fedcleanse/fedcleanse/internal/tensor"

// SGD is a stochastic-gradient-descent optimizer with classical momentum,
// global weight decay, and support for per-parameter L2 penalties (set via
// Param.L2; used by the paper's last-conv-layer regularization study).
//
// The velocity buffers are keyed by parameter identity, so one SGD instance
// must be used with exactly one model instance.
type SGD struct {
	// LR is the learning rate. Must be positive.
	LR float64
	// Momentum in [0,1); 0 disables momentum.
	Momentum float64
	// WeightDecay is a global L2 coefficient applied to every parameter
	// except those marked NoDecay.
	WeightDecay float64

	velocity map[*Param]*tensor.Tensor
}

// NewSGD returns an optimizer with the given hyperparameters.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// Step applies one update to every parameter of the model from its
// accumulated gradients, then clears the gradients and re-applies prune
// masks so pruned units remain zero.
func (o *SGD) Step(m *Sequential) {
	if o.velocity == nil {
		o.velocity = make(map[*Param]*tensor.Tensor)
	}
	for _, p := range m.Params() {
		if p.Stat {
			continue // running statistics are not optimized
		}
		g := p.Grad
		// Decoupled penalties are folded into the gradient: global weight
		// decay plus the parameter's own L2 coefficient.
		decay := p.L2
		if !p.NoDecay {
			decay += o.WeightDecay
		}
		if decay != 0 {
			g.AddScaled(decay, p.Value)
		}
		if o.Momentum > 0 {
			v, ok := o.velocity[p]
			if !ok {
				v = tensor.New(p.Value.Shape()...)
				o.velocity[p] = v
			}
			v.Scale(o.Momentum)
			v.Add(g)
			p.Value.AddScaled(-o.LR, v)
		} else {
			p.Value.AddScaled(-o.LR, g)
		}
		g.Zero()
	}
	m.EnforceMasks()
}

// ZeroVelocity zeroes every velocity buffer in place. The optimizer then
// behaves exactly like a freshly constructed one (velocity starts at zero)
// while keeping its buffers, so training loops that restart momentum every
// round — each federated local update — reuse the allocation.
func (o *SGD) ZeroVelocity() {
	for _, v := range o.velocity {
		v.Zero()
	}
}
