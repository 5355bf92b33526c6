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
// statistic are float64 by construction. A Float32 model keeps per-layer
// float32 shadow weights that are re-narrowed from the float64 parameters
// on each forward pass, so optimizer and aggregation updates are picked up
// without any explicit sync step.
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

// layer32 is implemented by layers that can run their forward and backward
// arithmetic natively in float32. Contracts mirror Layer exactly: Forward32
// may cache state for Backward32 when train is set; returned tensors are
// layer-owned scratch, valid until the layer's next pass in the same mode.
// Parameter gradients are still accumulated into the float64 Param.Grad.
//
// Layers that do not implement layer32 still work on a Float32 model
// through a widening bridge in Sequential (correct but allocating); every
// layer shipped by this package implements it natively.
type layer32 interface {
	Forward32(x *tensor.T32, train bool) *tensor.T32
	Backward32(dout *tensor.T32) *tensor.T32
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

// forward32 is Forward on the Float32 backend: narrow the input once, chain
// the layers' native float32 passes, widen the result at the boundary.
func (m *Sequential) forward32(x *tensor.Tensor, train bool) *tensor.Tensor {
	cur := m.scr32.GetLike64("in", x)
	cur.From64(x)
	for _, l := range m.layers {
		if l32, ok := l.(layer32); ok {
			cur = l32.Forward32(cur, train)
		} else {
			cur = m.bridgeForward(l, cur, train)
		}
	}
	return m.widenOutput("out", cur, train)
}

// widenOutput converts a final float32 activation to the float64 the
// Sequential API promises. Training outputs (consumed by the loss before
// the next step) and eval-reuse outputs live in the model's arena; plain
// inference allocates fresh because callers may retain the result — the
// same ownership rules as the float64 path.
func (m *Sequential) widenOutput(slot string, cur *tensor.T32, reuse bool) *tensor.Tensor {
	var out *tensor.Tensor
	if reuse || m.evalReuse {
		out = m.scr64.GetLike32(slot, cur)
	} else {
		out = tensor.New(cur.Shape()...)
	}
	cur.To64(out)
	return out
}

// backward32 is Backward on the Float32 backend: narrow dout once, chain
// the layers' native float32 backward passes (parameter gradients land in
// the float64 Param.Grad inside each layer), widen the input gradient.
func (m *Sequential) backward32(dout *tensor.Tensor) *tensor.Tensor {
	cur := m.scr32.GetLike64("dout", dout)
	cur.From64(dout)
	for i := len(m.layers) - 1; i >= 0; i-- {
		if l32, ok := m.layers[i].(layer32); ok {
			cur = l32.Backward32(cur)
		} else {
			cur = m.bridgeBackward(m.layers[i], cur)
		}
	}
	dx := m.scr64.GetLike32("dx", cur)
	cur.To64(dx)
	return dx
}

// backwardParams32 is BackwardParams on the Float32 backend: besides the
// first layer's dx, the final narrow-to-wide copy of the input gradient is
// skipped too (nothing reads it).
func (m *Sequential) backwardParams32(dout *tensor.Tensor) {
	cur := m.scr32.GetLike64("dout", dout)
	cur.From64(dout)
	for i := len(m.layers) - 1; i > 0; i-- {
		if l32, ok := m.layers[i].(layer32); ok {
			cur = l32.Backward32(cur)
		} else {
			cur = m.bridgeBackward(m.layers[i], cur)
		}
	}
	first := m.layers[0]
	if pb, ok := first.(paramBackward32); ok {
		pb.backwardParams32(cur)
		return
	}
	if l32, ok := first.(layer32); ok {
		l32.Backward32(cur)
		return
	}
	m.bridgeBackward(first, cur)
}

// forwardTo32 / forwardFrom32 split a Float32 inference pass at a layer
// boundary. The boundary activation is widened for the caller; narrowing
// it again in forwardFrom32 restores the identical float32 bits
// (float32→float64 widening is exact), so a cached-prefix replay remains
// bit-identical to the unsplit forward — the property the cached
// evaluators' identity tests assert on either backend.
func (m *Sequential) forwardTo32(hi int, x *tensor.Tensor) *tensor.Tensor {
	cur := m.scr32.GetLike64("in", x)
	cur.From64(x)
	for _, l := range m.layers[:hi] {
		if l32, ok := l.(layer32); ok {
			cur = l32.Forward32(cur, false)
		} else {
			cur = m.bridgeForward(l, cur, false)
		}
	}
	return m.widenOutput("boundary", cur, false)
}

func (m *Sequential) forwardFrom32(li int, x *tensor.Tensor) *tensor.Tensor {
	cur := m.scr32.GetLike64("from", x)
	cur.From64(x)
	for _, l := range m.layers[li:] {
		if l32, ok := l.(layer32); ok {
			cur = l32.Forward32(cur, false)
		} else {
			cur = m.bridgeForward(l, cur, false)
		}
	}
	return m.widenOutput("fout", cur, false)
}

// forwardActivations32 is ForwardActivations on the Float32 backend: every
// layer output is widened so downstream activation accounting (pruning
// votes, defense statistics) stays float64. With eval reuse on, the
// widened copies live in per-layer arena slots; otherwise they are fresh
// (callers may retain them).
func (m *Sequential) forwardActivations32(x *tensor.Tensor) []*tensor.Tensor {
	acts := m.actsSlice()
	cur := m.scr32.GetLike64("in", x)
	cur.From64(x)
	for i, l := range m.layers {
		if l32, ok := l.(layer32); ok {
			cur = l32.Forward32(cur, false)
		} else {
			cur = m.bridgeForward(l, cur, false)
		}
		var act *tensor.Tensor
		if m.evalReuse {
			act = m.scr64.GetIndexedLike32("act", i, cur)
		} else {
			act = tensor.New(cur.Shape()...)
		}
		cur.To64(act)
		acts[i] = act
	}
	return acts
}

// bridgeForward runs a layer with no native float32 path by widening its
// input, calling the float64 Forward, and narrowing the result. Correct on
// any Layer implementation, but it allocates per call; the shipped layers
// all implement layer32 and never take this path.
func (m *Sequential) bridgeForward(l Layer, x *tensor.T32, train bool) *tensor.T32 {
	x64 := tensor.New(x.Shape()...)
	x.To64(x64)
	out64 := l.Forward(x64, train)
	out := tensor.New32(out64.Shape()...)
	out.From64(out64)
	return out
}

// bridgeBackward is bridgeForward's counterpart for the backward pass.
func (m *Sequential) bridgeBackward(l Layer, dout *tensor.T32) *tensor.T32 {
	d64 := tensor.New(dout.Shape()...)
	dout.To64(d64)
	dx64 := l.Backward(d64)
	dx := tensor.New32(dx64.Shape()...)
	dx.From64(dx64)
	return dx
}
