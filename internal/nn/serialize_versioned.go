package nn

import (
	"fmt"
	"io"
	"math/rand"
	"slices"

	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Versioned model serialization (DESIGN.md §15): the one format models are
// written in. A model is typed wire sections over raw little-endian
// payloads — stable across binaries, self-describing enough for readers to
// skip sections they do not know, and closed by a CRC so a torn file
// decodes to an error instead of a corrupt model. It deliberately does not
// serialize arbitrary layer graphs: reconstruction goes through the
// registered builders, which keeps the format stable and the loader free
// of code execution beyond the known architectures.

// Section types of wire.KindModel payloads.
const (
	// secModelBuilder is the model-zoo builder name (UTF-8).
	secModelBuilder uint16 = 1
	// secModelGeometry is C, H, W, classes as four uvarints.
	secModelGeometry uint16 = 2
	// secModelState is the parameter/mask payload (see AppendModelState).
	secModelState uint16 = 3
)

// maxModelBytes caps how much LoadAny will buffer: generous for any model
// this repository builds (the largest is a few MiB of float64 params),
// far below anything that could balloon memory.
const maxModelBytes = 1 << 30

// EncodeVersionedModel encodes m as a wire.KindModel payload. builderName
// must identify the constructor that built m (see BuilderByName); in and
// classes must match the constructor arguments.
func EncodeVersionedModel(builderName string, in Input, classes int, m *Sequential) ([]byte, error) {
	if _, err := BuilderByName(builderName); err != nil {
		return nil, fmt.Errorf("nn: EncodeVersionedModel: %w", err)
	}
	var geo []byte
	geo = wire.AppendUint(geo, uint64(in.C))
	geo = wire.AppendUint(geo, uint64(in.H))
	geo = wire.AppendUint(geo, uint64(in.W))
	geo = wire.AppendUint(geo, uint64(classes))
	return wire.NewEncoder(wire.KindModel).
		Section(secModelBuilder, []byte(builderName)).
		Section(secModelGeometry, geo).
		Section(secModelState, AppendModelState(nil, m)).
		Bytes(), nil
}

// DecodeVersionedModel reconstructs a model from a wire.KindModel payload,
// validating it against the architecture: the builder must be
// registered, the geometry positive, the parameter vector and masks sized
// to the architecture. Unknown section types are skipped. It never
// panics on malformed input.
func DecodeVersionedModel(data []byte) (*Sequential, error) {
	secs, err := wire.DecodeKind(data, wire.KindModel)
	if err != nil {
		return nil, fmt.Errorf("nn: DecodeVersionedModel: %w", err)
	}
	var builderName string
	var geo, state []byte
	for _, s := range secs {
		switch s.Type {
		case secModelBuilder:
			builderName = string(s.Payload)
		case secModelGeometry:
			geo = s.Payload
		case secModelState:
			state = s.Payload
		}
	}
	if builderName == "" || geo == nil || state == nil {
		return nil, fmt.Errorf("nn: DecodeVersionedModel: missing required section (builder/geometry/state)")
	}
	build, err := BuilderByName(builderName)
	if err != nil {
		return nil, fmt.Errorf("nn: DecodeVersionedModel: %w", err)
	}
	var dims [4]uint64
	rest := geo
	for i := range dims {
		if dims[i], rest, err = wire.ReadUint(rest); err != nil {
			return nil, fmt.Errorf("nn: DecodeVersionedModel: geometry: %w", err)
		}
		if dims[i] == 0 || dims[i] > 1<<20 {
			return nil, fmt.Errorf("nn: DecodeVersionedModel: geometry value %d out of range", dims[i])
		}
	}
	in := Input{C: int(dims[0]), H: int(dims[1]), W: int(dims[2])}
	classes := int(dims[3])
	m := build(in, classes, rand.New(rand.NewSource(0)))
	if err := ApplyModelState(m, state); err != nil {
		return nil, fmt.Errorf("nn: DecodeVersionedModel: %w", err)
	}
	return m, nil
}

// LoadAny reads one model from r: a versioned envelope — a gob snapshot
// from a fedtrain older than the envelope fails the magic check like any
// foreign bytes. The read is capped: a hostile stream cannot balloon memory.
func LoadAny(r io.Reader) (*Sequential, error) {
	data, err := wire.ReadPayload(r, maxModelBytes)
	if err != nil {
		return nil, fmt.Errorf("nn: LoadAny: %w", err)
	}
	return DecodeVersionedModel(data)
}

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
