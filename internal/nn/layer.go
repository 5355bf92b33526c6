// Package nn is a from-scratch convolutional neural-network framework built
// for the fedcleanse reproduction. It provides the layer types the paper's
// models need (Conv2D, Dense, MaxPool2D, ReLU, Flatten), a Sequential
// container with flat-parameter-vector access for federated averaging, a
// softmax cross-entropy loss, and an SGD optimizer with momentum, weight
// decay and per-parameter L2 penalties (used by the paper's §VI-A
// last-conv-layer regularization study).
//
// Layers are stateful: Forward caches whatever Backward needs, so a layer
// instance must not be shared between concurrent goroutines. Federated
// clients therefore train on a Sequential clone borrowed for the length of
// one local update (Replicas).
//
// Two design points serve the defense in internal/core:
//
//   - Conv2D, Dense and BatchNorm2D implement Prunable: output
//     channels/units can be masked out, which zeroes their parameters and
//     pins them to zero across later gradient steps (so federated
//     fine-tuning cannot resurrect a pruned "backdoor neuron").
//   - Sequential.ForwardTo returns the output of any layer boundary,
//     which the federated pruning step uses to record per-neuron average
//     activation values on client data.
package nn

import (
	"math"
	"math/rand"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// Param is a single learnable parameter tensor with its gradient buffer.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
	// L2 is an extra per-parameter L2 penalty coefficient applied by SGD in
	// addition to the optimizer's global weight decay. The paper's §VI-A
	// regularization study sets this on the last convolutional layer only.
	L2 float64
	// NoDecay excludes the parameter from global weight decay (biases).
	NoDecay bool
	// Stat marks a non-learnable statistic carried inside the parameter
	// vector (batch-norm running mean/variance). The optimizer skips Stat
	// parameters entirely, but federated averaging transports them, which
	// keeps the aggregated global model's inference statistics in sync with
	// the clients that produced it.
	Stat bool
}

// newParam allocates a parameter and its zeroed gradient with the given shape.
func newParam(name string, shape ...int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(shape...),
		Grad:  tensor.New(shape...),
	}
}

// clone returns a deep copy of the parameter (value and gradient) carrying
// every flag.
func (p *Param) clone() *Param {
	return &Param{
		Name:    p.Name,
		Value:   p.Value.Clone(),
		Grad:    p.Grad.Clone(),
		L2:      p.L2,
		NoDecay: p.NoDecay,
		Stat:    p.Stat,
	}
}

// Layer is one differentiable stage of a feed-forward network.
type Layer interface {
	// Name identifies the layer for reports and parameter naming.
	Name() string
	// Forward computes the layer output for a batch. When train is false the
	// layer may skip caching state needed only by Backward. The output is
	// lent from the layer's scratch, valid until its next pass.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient of the loss with respect to the layer
	// output and returns the gradient with respect to the layer input,
	// accumulating parameter gradients along the way. It must be called
	// after a Forward with train=true.
	Backward(dout *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
	// CloneLayer returns a deep copy sharing no mutable state.
	CloneLayer() Layer
	// passes returns the layer's float64 and float32 passes, the ones
	// Sequential chains (backend.go). Forward and Backward are the float64
	// pass.
	passes() (pass[float64], pass[float32])
}

// pass is one layer's forward and backward arithmetic in element type E,
// together with what it caches between the two. Each layer's arithmetic
// exists once, as the methods of a pass generic over E; the layer holds
// one instance per precision. Contracts are Layer's: forward caches state
// for backward when train is set, and returned tensors are layer-owned
// scratch (outSlot).
type pass[E tensor.Elem] interface {
	forward(x *tensor.Of[E], train bool) *tensor.Of[E]
	backward(dout *tensor.Of[E]) *tensor.Of[E]
}

// passOf returns l's pass in E.
func passOf[E tensor.Elem](l Layer) pass[E] {
	p64, p32 := l.passes()
	if p, ok := p64.(pass[E]); ok {
		return p
	}
	return p32.(pass[E])
}

// setShape copies x's shape into *dst, allocating only when the rank
// changes.
func setShape[E tensor.Elem](dst *[]int, x *tensor.Of[E]) {
	if len(*dst) != x.Rank() {
		*dst = make([]int, x.Rank())
	}
	for i := range *dst {
		(*dst)[i] = x.Dim(i)
	}
}

// Prunable is implemented by layers whose output units ("neurons" in the
// paper's terminology: convolution channels or dense units) can be pruned.
// Conv2D, Dense and BatchNorm2D implement it with one embedded unitMask
// (mask.go); each declares in its bind method which parameter coordinates
// make up a unit.
type Prunable interface {
	Layer
	// Units returns the number of output units.
	Units() int
	// PruneUnit zeroes all parameters producing unit i and masks the unit so
	// subsequent gradient steps keep it at zero. Pruning an already-pruned
	// unit is a no-op.
	PruneUnit(i int)
	// UnitPruned reports whether unit i has been pruned.
	UnitPruned(i int) bool
	// PrunedCount returns the number of pruned units.
	PrunedCount() int
	// EnforceMask re-zeroes parameters of pruned units. Training loops call
	// it after each optimizer step and after installing aggregated updates.
	EnforceMask()
	// AppendUnitState appends the parameter values producing unit i to dst
	// and returns the extended slice. Together with SetUnitState it lets a
	// guarded prune loop snapshot and revert a single unit without cloning
	// the model (Sequential.CaptureUnit / RestoreUnit).
	AppendUnitState(dst []float64, i int) []float64
	// SetUnitState installs values captured by AppendUnitState and the
	// unit's mask flag.
	SetUnitState(i int, vals []float64, pruned bool)
}

// heInit fills w with He-normal initialization for fanIn inputs, the
// standard choice for ReLU networks.
func heInit(w *tensor.Tensor, fanIn int, rng *rand.Rand) {
	std := math.Sqrt(2.0 / float64(fanIn))
	w.Randn(rng, std)
}
