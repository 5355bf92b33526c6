package nn

import (
	"fmt"
	"strings"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// Backend selects the element type the model's forward/backward arithmetic
// runs in. Float64 is the canonical reference path; Float32 trades
// per-element precision for roughly halved memory traffic on the matmul-
// and conv-bound hot loops (DESIGN.md §13).
//
// The precision boundary is drawn at the Sequential API: callers always
// pass and receive *tensor.Tensor (float64) regardless of backend, layer
// parameters (Param.Value/Grad) stay float64, and therefore FL
// aggregation, the optimizer, checkpointable state and every defense
// statistic are float64 by construction. Both backends run the same layer
// code, generic over the element type (pass); what differs is confined to
// the boundary (stack) and three hooks: weights, the gradient adds
// (tensor.AddWiden) and output.
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

// EvalReuse reports whether inference outputs are currently routed through
// reusable scratch buffers (see SetEvalReuse). Callers that flip reuse on
// for a bounded scope use this to restore the previous state.
func (m *Sequential) EvalReuse() bool { return m.evalReuse }

// is64 reports whether E is float64; it folds to a constant in each
// instantiation.
func is64[E tensor.Elem]() bool {
	_, ok := any(E(0)).(float64)
	return ok
}

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

// keepsEval is the output hook's rule for inference outputs: they stay in
// layer scratch (slot "eout", overwritten by the next inference pass) when
// E is float32 — a float32 activation never leaves the Sequential, whose
// boundary widens it — and under eval reuse; otherwise they are fresh,
// because a caller may retain a float64 output across passes.
func keepsEval[E tensor.Elem](evalReuse bool) bool { return evalReuse || !is64[E]() }

// output is the output hook: a pass's output buffer of the given shape —
// slot "out" of a for a training pass (reused step after step), "eout" or
// a fresh tensor for an inference pass (keepsEval).
func output[E tensor.Elem](a *tensor.ArenaOf[E], train, evalReuse bool, shape ...int) *tensor.Of[E] {
	switch {
	case train:
		return a.Get("out", shape...)
	case keepsEval[E](evalReuse):
		return a.Get("eout", shape...)
	}
	return tensor.NewOf[E](shape...)
}

// outputLike is output shaped like x.
func outputLike[E tensor.Elem](a *tensor.ArenaOf[E], train, evalReuse bool, x *tensor.Of[E]) *tensor.Of[E] {
	switch {
	case train:
		return a.GetLike("out", x)
	case keepsEval[E](evalReuse):
		return a.GetLike("eout", x)
	}
	return tensor.NewOf[E](x.Shape()...)
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
	activations(m *Sequential, x *tensor.Tensor) []*tensor.Tensor
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
	return s.widen(m, out, 0, cur, train)
}

// activations is ForwardActivations: every layer output is widened, so
// downstream activation accounting (pruning votes, defense statistics)
// stays float64.
func (s *stack[E]) activations(m *Sequential, x *tensor.Tensor) []*tensor.Tensor {
	acts := m.actsSlice()
	cur := s.narrow("in", x)
	for i, l := range m.layers {
		cur = passOf[E](l).forward(cur, false)
		acts[i] = s.widen(m, "act", i, cur, false)
	}
	return acts
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
	return s.widen(m, "dx", 0, cur, true)
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

// widen returns cur as the float64 the Sequential API promises. A float64
// cur is returned as it is: the layer's output hook has already made it
// fresh or scratch. A float32 cur is widened into the model's arena (slot,
// idx) when reuse or eval reuse says the caller consumes it before the
// next pass, and into a fresh tensor when the caller may retain it — the
// ownership rules of the float64 path. Widening is exact, so narrowing the
// result again restores cur's bits: a ForwardTo/ForwardFrom split replays
// the unsplit forward bit for bit.
func (s *stack[E]) widen(m *Sequential, slot string, idx int, cur *tensor.Of[E], reuse bool) *tensor.Tensor {
	if t, ok := any(cur).(*tensor.Tensor); ok {
		return t
	}
	var out *tensor.Tensor
	if reuse || m.evalReuse {
		out = s.widened.GetIndexedLike(slot, idx, cur)
	} else {
		out = tensor.New(cur.Shape()...)
	}
	cur.To64(out)
	return out
}
