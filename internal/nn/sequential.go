package nn

import (
	"fmt"
	"sync"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// Sequential is an ordered stack of layers forming a feed-forward network.
type Sequential struct {
	layers []Layer

	// params caches the flattened parameter list. Neither the layer slice
	// nor any layer's parameters change after construction, so the cache
	// is never invalidated.
	params []*Param

	// backend selects the arithmetic precision of forward/backward passes
	// (backend.go). Clones inherit it; parameters stay float64 either way.
	backend Backend

	// f64 and f32 are the pass drivers of the two backends (backend.go).
	f64 stack[float64]
	f32 stack[float32]

	// replicas is the free list of working copies anchored on this model
	// (replicas.go), created on first use. Not cloned or serialized.
	replicasOnce sync.Once
	replicas     *Replicas
}

// NewSequential builds a network from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{layers: append([]Layer(nil), layers...)}
}

// Layer returns layer i.
func (m *Sequential) Layer(i int) Layer { return m.layers[i] }

// NumLayers returns the number of layers.
func (m *Sequential) NumLayers() int { return len(m.layers) }

// Forward runs the network on a batch. train selects whether layers cache
// state for Backward. The result is a loan in either precision and either
// mode: a buffer of the model's, valid until its next pass (DESIGN.md §4).
// A caller that keeps it across passes clones it.
func (m *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return m.driver().forward(m, 0, len(m.layers), x, train, "in", "out")
}

// ForwardTo runs inference through layers [0, hi) and returns the boundary
// activation, a loan like Forward's result (for hi == 0 the input itself
// on the float64 backend).
// Together with ForwardFrom it splits a forward pass at a layer boundary:
// callers that mutate only layers ≥ hi can compute the prefix once and
// replay the suffix per mutation, bit-identically to a full Forward — the
// suffix executes the same ops on the same floats.
func (m *Sequential) ForwardTo(hi int, x *tensor.Tensor) *tensor.Tensor {
	if hi < 0 || hi > len(m.layers) {
		panic(fmt.Sprintf("nn: ForwardTo boundary %d outside [0,%d]", hi, len(m.layers)))
	}
	return m.driver().forward(m, 0, hi, x, false, "in", "boundary")
}

// ForwardFrom runs inference through layers [li, NumLayers) on a boundary
// activation produced by ForwardTo(li, ·) and returns a loan like
// Forward's result. Layers never write to their input, so a cached (cloned)
// boundary activation can be replayed any number of times.
func (m *Sequential) ForwardFrom(li int, x *tensor.Tensor) *tensor.Tensor {
	if li < 0 || li > len(m.layers) {
		panic(fmt.Sprintf("nn: ForwardFrom boundary %d outside [0,%d]", li, len(m.layers)))
	}
	return m.driver().forward(m, li, len(m.layers), x, false, "from", "fout")
}

// Backward propagates dout (gradient w.r.t. the network output) through all
// layers in reverse, accumulating parameter gradients, and returns the
// gradient with respect to the network input.
func (m *Sequential) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return m.driver().backward(m, dout, true)
}

// paramBackward is implemented by passes whose backward pass can skip
// materializing the input gradient while producing bit-identical parameter
// gradients. Only useful for the network's first layer, whose dx nothing
// consumes.
type paramBackward[E tensor.Elem] interface {
	backwardParams(dout *tensor.Of[E])
}

// BackwardParams is Backward for training loops: parameter gradients are
// bit-identical to Backward's, but the input gradient of the first layer —
// which SGD never consumes — is skipped when the layer supports it (for a
// Conv2D first layer that drops a full Wᵀ·dout matmul and Col2Im scatter
// per sample). Use Backward when the returned input gradient is needed.
func (m *Sequential) BackwardParams(dout *tensor.Tensor) {
	m.driver().backward(m, dout, false)
}

// Params returns all learnable parameters in layer order. The returned
// slice is cached and shared — callers iterate it every optimizer step and
// must not mutate it.
func (m *Sequential) Params() []*Param {
	if m.params == nil {
		for _, l := range m.layers {
			m.params = append(m.params, l.Params()...)
		}
	}
	return m.params
}

// ZeroGrads clears every parameter gradient.
func (m *Sequential) ZeroGrads() {
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
}

// NumParams returns the total number of scalar parameters.
func (m *Sequential) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.Value.Len()
	}
	return n
}

// Clone returns a deep copy of the network, including prune masks.
func (m *Sequential) Clone() *Sequential {
	ls := make([]Layer, len(m.layers))
	for i, l := range m.layers {
		ls[i] = l.CloneLayer()
	}
	return &Sequential{layers: ls, backend: m.backend}
}

// ParamsVector flattens all parameter values into a single new slice, in
// layer order. The layout is stable for a fixed architecture, which is what
// federated averaging relies on.
func (m *Sequential) ParamsVector() []float64 {
	out := make([]float64, 0, m.NumParams())
	for _, p := range m.Params() {
		out = append(out, p.Value.Data...)
	}
	return out
}

// SetParamsVector installs a flat parameter vector produced by
// ParamsVector on a network of the identical architecture, then re-applies
// prune masks so masked units cannot be resurrected by an aggregated update.
func (m *Sequential) SetParamsVector(v []float64) {
	if len(v) != m.NumParams() {
		panic(fmt.Sprintf("nn: SetParamsVector length %d, want %d", len(v), m.NumParams()))
	}
	off := 0
	for _, p := range m.Params() {
		n := p.Value.Len()
		copy(p.Value.Data, v[off:off+n])
		off += n
	}
	m.EnforceMasks()
}

// AddDeltaVector adds alpha·delta to the parameters, then re-applies prune
// masks. Used by the FedAvg update rule.
func (m *Sequential) AddDeltaVector(alpha float64, delta []float64) {
	if len(delta) != m.NumParams() {
		panic(fmt.Sprintf("nn: AddDeltaVector length %d, want %d", len(delta), m.NumParams()))
	}
	off := 0
	for _, p := range m.Params() {
		n := p.Value.Len()
		tensor.Axpy(p.Value.Data, alpha, delta[off:off+n])
		off += n
	}
	m.EnforceMasks()
}

// FreezeStats freezes every batch-normalization layer of m so that
// training-mode passes use the running statistics as constants (no batch
// statistics, no stat updates). Gradient-based input optimization against
// a fixed model (trigger reverse-engineering) requires this.
func FreezeStats(m *Sequential) {
	for _, l := range m.layers {
		if bn, ok := l.(*BatchNorm2D); ok {
			bn.Freeze()
		}
	}
}

// EnforceMasks re-applies the prune mask of every Prunable layer.
func (m *Sequential) EnforceMasks() {
	for _, l := range m.layers {
		if p, ok := l.(Prunable); ok {
			p.EnforceMask()
		}
	}
}

// unitLayers returns the layers whose unit u PruneModelUnit(li, u) prunes,
// and CaptureUnit and RestoreUnit save and reinstate: layer li itself and,
// when the immediately following layer is a BatchNorm2D, that layer too
// (otherwise normalization would re-inflate the dead channel's zeros into
// a non-zero bias). It panics if layer li is not Prunable.
func (m *Sequential) unitLayers(li int) (ls [2]Prunable, n int) {
	p, ok := m.layers[li].(Prunable)
	if !ok {
		panic(fmt.Sprintf("nn: layer %d (%s) is not prunable", li, m.layers[li].Name()))
	}
	ls[0], n = p, 1
	if li+1 < len(m.layers) {
		if bn, ok := m.layers[li+1].(*BatchNorm2D); ok {
			ls[1], n = bn, 2
		}
	}
	return ls, n
}

// PruneModelUnit prunes output unit u of the Prunable layer at index li in
// every layer of unitLayers(li). It panics if layer li is not Prunable.
func (m *Sequential) PruneModelUnit(li, u int) {
	ls, n := m.unitLayers(li)
	for _, p := range ls[:n] {
		p.PruneUnit(u)
	}
}

// UnitSnapshot holds the parameter state touched by PruneModelUnit(li, u):
// unit u's values and mask flag in each layer of unitLayers(li).
// CaptureUnit fills one, RestoreUnit reinstates it — a revert that copies a
// handful of floats instead of cloning the whole model. Snapshots reuse
// their backing slice across captures, so a guarded prune loop allocates
// nothing after the first capture.
type UnitSnapshot struct {
	li, unit int
	// vals holds the layers' unit states back to back; layer i's ends at
	// ends[i].
	vals   []float64
	ends   [2]int
	pruned [2]bool
}

// CaptureUnit records the state PruneModelUnit(li, u) would mutate,
// reusing prev's backing storage. It panics if layer li is not Prunable.
func (m *Sequential) CaptureUnit(li, u int, prev UnitSnapshot) UnitSnapshot {
	ls, n := m.unitLayers(li)
	snap := prev
	snap.li, snap.unit, snap.vals = li, u, snap.vals[:0]
	for i, p := range ls[:n] {
		snap.vals = p.AppendUnitState(snap.vals, u)
		snap.ends[i], snap.pruned[i] = len(snap.vals), p.UnitPruned(u)
	}
	return snap
}

// RestoreUnit reinstates a snapshot taken with CaptureUnit, exactly
// reverting an intervening PruneModelUnit(li, u): that call zeroes only the
// unit's parameters and sets its mask flags, both of which the snapshot
// carries.
func (m *Sequential) RestoreUnit(snap UnitSnapshot) {
	ls, n := m.unitLayers(snap.li)
	start := 0
	for i, p := range ls[:n] {
		p.SetUnitState(snap.unit, snap.vals[start:snap.ends[i]], snap.pruned[i])
		start = snap.ends[i]
	}
}

// LastConvIndex returns the index of the last Conv2D layer, or -1 if the
// network has none. The paper's pruning and weight-adjustment steps target
// this layer.
func (m *Sequential) LastConvIndex() int {
	for i := len(m.layers) - 1; i >= 0; i-- {
		if _, ok := m.layers[i].(*Conv2D); ok {
			return i
		}
	}
	return -1
}
