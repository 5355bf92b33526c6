package nn

import "fmt"

// unitSpan declares the coordinates one Param contributes to each unit: unit
// u owns the n values of p at u·step + k·stride, k in [0, n).
type unitSpan struct {
	p               *Param
	step, stride, n int
}

// unitMask is the prune mask of a Prunable layer, and the one
// implementation of Prunable's mask methods: the layer embeds it and
// declares in bind which parameter coordinates make up a unit (a Conv2D
// channel's weight row and bias, a Dense unit's weight column and bias, a
// BatchNorm2D channel's γ and β). Pruning zeroes those coordinates and
// keeps them at zero: in the values after every write through
// EnforceMask, in the gradients after every backward pass (maskGrads).
type unitMask struct {
	layer  string
	pruned []bool
	spans  []unitSpan
}

// bindUnits declares the layer's units over spans, allocating the flags of
// a new layer; a clone's CloneLayer has set a copy of its original's.
func (m *unitMask) bindUnits(layer string, units int, spans ...unitSpan) {
	m.layer, m.spans = layer, spans
	if m.pruned == nil {
		m.pruned = make([]bool, units)
	}
}

// Units implements Prunable.
func (m *unitMask) Units() int { return len(m.pruned) }

// PruneUnit implements Prunable.
func (m *unitMask) PruneUnit(u int) {
	if u < 0 || u >= len(m.pruned) {
		panic(fmt.Sprintf("nn: %s: PruneUnit(%d) out of range [0,%d)", m.layer, u, len(m.pruned)))
	}
	m.pruned[u] = true
	m.EnforceMask()
}

// UnitPruned implements Prunable.
func (m *unitMask) UnitPruned(u int) bool { return m.pruned[u] }

// PrunedCount implements Prunable.
func (m *unitMask) PrunedCount() int {
	n := 0
	for _, p := range m.pruned {
		if p {
			n++
		}
	}
	return n
}

// EnforceMask implements Prunable.
func (m *unitMask) EnforceMask() { m.zeroPruned(false) }

// maskGrads zeroes the gradients flowing into pruned units, so an optimizer
// step cannot resurrect them.
func (m *unitMask) maskGrads() { m.zeroPruned(true) }

// zeroPruned zeroes every pruned unit's coordinates in the parameter values,
// or in their gradients when grad is set.
func (m *unitMask) zeroPruned(grad bool) {
	for u, p := range m.pruned {
		if !p {
			continue
		}
		for _, s := range m.spans {
			d := s.p.Value.Data
			if grad {
				d = s.p.Grad.Data
			}
			for k := 0; k < s.n; k++ {
				d[u*s.step+k*s.stride] = 0
			}
		}
	}
}

// AppendUnitState implements Prunable: unit u's coordinates, span by span.
func (m *unitMask) AppendUnitState(dst []float64, u int) []float64 {
	for _, s := range m.spans {
		for k := 0; k < s.n; k++ {
			dst = append(dst, s.p.Value.Data[u*s.step+k*s.stride])
		}
	}
	return dst
}

// SetUnitState implements Prunable.
func (m *unitMask) SetUnitState(u int, vals []float64, pruned bool) {
	want := 0
	for _, s := range m.spans {
		want += s.n
	}
	if len(vals) != want {
		panic(fmt.Sprintf("nn: %s: unit state length %d, want %d", m.layer, len(vals), want))
	}
	for _, s := range m.spans {
		for k := 0; k < s.n; k++ {
			s.p.Value.Data[u*s.step+k*s.stride] = vals[k]
		}
		vals = vals[s.n:]
	}
	m.pruned[u] = pruned
}
