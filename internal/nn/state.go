package nn

import (
	"fmt"
	"slices"

	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// AppendModelState appends m's mutable state — the flat parameter vector
// and the prune masks — to dst as an opaque payload:
//
//	uvarint nparams, nparams raw float64 LE,
//	uvarint nmasks, each: uvarint layer, uvarint units, ceil(units/8)
//	bitmap bytes (LSB first; only layers with at least one pruned unit
//	are emitted)
//
// Checkpoints embed it as a section (internal/fl); ApplyModelState is the
// inverse onto a freshly built model of the same architecture. Everything is
// written straight from the parameter tensors and the layers' own flags — a
// checkpoint is cut several times a round, so beyond growing dst this
// allocates nothing.
func AppendModelState(dst []byte, m *Sequential) []byte {
	dst = slices.Grow(dst, 8*m.NumParams()) // one growth, not one per tensor
	dst = wire.AppendUint(dst, uint64(m.NumParams()))
	for _, p := range m.Params() {
		dst = wire.AppendFloat64s(dst, p.Value.Data)
	}
	nmasks := 0
	for _, l := range m.layers {
		if p, ok := l.(Prunable); ok && p.PrunedCount() > 0 {
			nmasks++
		}
	}
	dst = wire.AppendUint(dst, uint64(nmasks))
	for li, l := range m.layers {
		if p, ok := l.(Prunable); ok && p.PrunedCount() > 0 {
			dst = wire.AppendUint(dst, uint64(li))
			dst = wire.AppendBoolsFunc(dst, p.Units(), p.UnitPruned)
		}
	}
	return dst
}

// ApplyModelState restores an AppendModelState payload onto m, which must
// be a same-architecture model without prune masks of its own (a freshly
// built or cloned template; Prunable layers cannot un-prune, so restoring
// onto an already-pruned model would union the masks). Masks install
// first, then the parameter vector — SetParamsVector re-applies the
// masks, so masked units stay zero even if the payload was edited.
func ApplyModelState(m *Sequential, p []byte) error {
	nparams, rest, err := wire.ReadUint(p)
	if err != nil {
		return fmt.Errorf("nn: ApplyModelState: %w", err)
	}
	if nparams != uint64(m.NumParams()) {
		return fmt.Errorf("nn: ApplyModelState: payload has %d params, architecture wants %d",
			nparams, m.NumParams())
	}
	if uint64(len(rest)) < 8*nparams {
		return fmt.Errorf("nn: ApplyModelState: %d param bytes, want %d", len(rest), 8*nparams)
	}
	params, err := wire.Float64s(rest[:8*nparams], int(nparams))
	if err != nil {
		return fmt.Errorf("nn: ApplyModelState: %w", err)
	}
	rest = rest[8*nparams:]
	nmasks, rest, err := wire.ReadUint(rest)
	if err != nil {
		return fmt.Errorf("nn: ApplyModelState: %w", err)
	}
	if nmasks > uint64(m.NumLayers()) {
		return fmt.Errorf("nn: ApplyModelState: %d masks for %d layers", nmasks, m.NumLayers())
	}
	for i := uint64(0); i < nmasks; i++ {
		li64, r2, err := wire.ReadUint(rest)
		if err != nil {
			return fmt.Errorf("nn: ApplyModelState: mask %d: %w", i, err)
		}
		mask, r3, err := wire.ReadBools(r2)
		if err != nil {
			return fmt.Errorf("nn: ApplyModelState: mask %d: %w", i, err)
		}
		rest = r3
		if li64 >= uint64(m.NumLayers()) {
			return fmt.Errorf("nn: ApplyModelState: mask for layer %d of %d", li64, m.NumLayers())
		}
		if err := installMask(m, int(li64), mask); err != nil {
			return fmt.Errorf("nn: ApplyModelState: %w", err)
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("nn: ApplyModelState: %d trailing bytes", len(rest))
	}
	m.SetParamsVector(params)
	return nil
}

// installMask prunes the units of layer li that mask marks, after checking
// that the layer exists, is prunable and has len(mask) units.
func installMask(m *Sequential, li int, mask []bool) error {
	if li < 0 || li >= m.NumLayers() {
		return fmt.Errorf("mask for layer %d of %d", li, m.NumLayers())
	}
	p, ok := m.Layer(li).(Prunable)
	if !ok {
		return fmt.Errorf("layer %d is not prunable", li)
	}
	if len(mask) != p.Units() {
		return fmt.Errorf("mask length %d for layer %d with %d units", len(mask), li, p.Units())
	}
	for u, pruned := range mask {
		if pruned {
			p.PruneUnit(u)
		}
	}
	return nil
}
