package nn

import (
	"fmt"
	"strings"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// Backend selects the element type the model's forward/backward arithmetic
// runs in. Float64 is the canonical reference path; Float32 trades
// per-element precision for roughly halved memory traffic on the matmul-
// and conv-bound hot loops (DESIGN.md §4).
//
// The precision boundary is drawn at the Sequential API: callers always
// pass and receive *tensor.Tensor (float64) regardless of backend, layer
// parameters (Param.Value/Grad) stay float64, and therefore FL
// aggregation, the optimizer, checkpointable state and every defense
// statistic are float64 by construction. Both backends run the same layer
// code, generic over the element type (pass); what differs is confined to
// the boundary (stack) and two hooks: weights and the gradient adds
// (tensor.AddWiden).
type Backend int

const (
	// Float64 runs every kernel in float64 (the default and the
	// reference semantics).
	Float64 Backend = iota
	// Float32 runs layer forward/backward kernels in float32, converting
	// at the Sequential boundary.
	Float32
)

// String returns the flag spelling of the backend.
func (b Backend) String() string {
	switch b {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend parses the -backend flag spelling ("float64" or "float32",
// case-insensitive; "f64"/"f32" and the empty string are accepted).
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(s) {
	case "float64", "f64", "":
		return Float64, nil
	case "float32", "f32":
		return Float32, nil
	default:
		return Float64, fmt.Errorf("nn: unknown backend %q (want float64 or float32)", s)
	}
}

// SetBackend selects the arithmetic precision for subsequent passes. It is
// a structural switch, not a per-call option: set it once on the template
// model (clones inherit it) before any training or evaluation.
func (m *Sequential) SetBackend(b Backend) { m.backend = b }

// Backend returns the model's arithmetic precision.
func (m *Sequential) Backend() Backend { return m.backend }

// weights is the weights hook: p's values as a pass in E reads them. A
// float64 pass reads Param.Value in place. A float32 pass reads a shadow
// in its arena under slot, narrowed from Param.Value when sync is set —
// at the top of every forward pass, so optimizer steps, FedAvg updates and
// prune masks (all float64 writes) reach it with no explicit sync step; a
// masked weight is exactly 0.0 in either precision. Backward reads the
// shadow its forward pass synced.
func weights[E tensor.Elem](a *tensor.ArenaOf[E], slot string, p *Param, sync bool) *tensor.Of[E] {
	if w, ok := any(p.Value).(*tensor.Of[E]); ok {
		return w
	}
	w := a.GetLike(slot, p.Value)
	if sync {
		w.From64(p.Value)
	}
	return w
}

// outSlot names the arena slot a pass lends its output from: "out" for a
// training pass, "eout" for an inference pass. Every pass output is a loan
// in either precision, overwritten by the layer's next pass (DESIGN.md §4);
// the slots differ so that an inference pass between a training forward and
// its backward leaves the outputs backward reads alone.
func outSlot(train bool) string {
	if train {
		return "out"
	}
	return "eout"
}

// stack is Sequential's pass driver in one element type: it chains the
// layers' E passes and converts only at the boundary — narrowing the
// float64 input once, widening the result once. Both conversions are the
// identity for float64. Single-goroutine, not cloned or serialized, like
// layer scratch.
type stack[E tensor.Elem] struct {
	// narrowed and widened hold the float32 boundary's staging buffers.
	narrowed tensor.ArenaOf[E]
	widened  tensor.Arena
}

// driver is a stack of either element type, as Sequential calls it.
type driver interface {
	forward(m *Sequential, lo, hi int, x *tensor.Tensor, train bool, in, out string) *tensor.Tensor
	backward(m *Sequential, dout *tensor.Tensor, needDX bool) *tensor.Tensor
}

// driver returns the stack of the model's backend.
func (m *Sequential) driver() driver {
	if m.backend == Float32 {
		return &m.f32
	}
	return &m.f64
}

// forward runs layers [lo, hi) on x, staging the narrowed input in slot
// in and the widened result in slot out (widen).
func (s *stack[E]) forward(m *Sequential, lo, hi int, x *tensor.Tensor, train bool, in, out string) *tensor.Tensor {
	cur := s.narrow(in, x)
	for _, l := range m.layers[lo:hi] {
		cur = passOf[E](l).forward(cur, train)
	}
	return s.widen(out, cur)
}

// backward runs the layers' backward passes in reverse (parameter
// gradients land in the float64 Param.Grad inside each layer) and returns
// the widened input gradient. Without needDX the first layer skips its
// input gradient where it can (paramBackward) and nothing is widened.
func (s *stack[E]) backward(m *Sequential, dout *tensor.Tensor, needDX bool) *tensor.Tensor {
	cur := s.narrow("dout", dout)
	for i := len(m.layers) - 1; i > 0; i-- {
		cur = passOf[E](m.layers[i]).backward(cur)
	}
	first := passOf[E](m.layers[0])
	if pb, ok := first.(paramBackward[E]); ok && !needDX {
		pb.backwardParams(cur)
		return nil
	}
	cur = first.backward(cur)
	if !needDX {
		return nil
	}
	return s.widen("dx", cur)
}

// narrow returns x in E: x itself for float64, a float32 copy staged in
// slot otherwise.
func (s *stack[E]) narrow(slot string, x *tensor.Tensor) *tensor.Of[E] {
	if x, ok := any(x).(*tensor.Of[E]); ok {
		return x
	}
	t := s.narrowed.GetLike(slot, x)
	t.From64(x)
	return t
}

// widen returns cur as the float64 the Sequential API promises: cur itself
// for float64, otherwise cur widened into the model's arena under slot — a
// loan like every pass output. Widening is exact, so narrowing the
// result again restores cur's bits: a ForwardTo/ForwardFrom split replays
// the unsplit forward bit for bit.
func (s *stack[E]) widen(slot string, cur *tensor.Of[E]) *tensor.Tensor {
	if t, ok := any(cur).(*tensor.Tensor); ok {
		return t
	}
	out := s.widened.GetLike(slot, cur)
	cur.To64(out)
	return out
}
