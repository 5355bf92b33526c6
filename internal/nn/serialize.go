package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
)

// Snapshot is the gob form fedtrain wrote a model in before the versioned
// envelope (serialize_versioned.go): the architecture descriptor plus the
// flat parameter vector and the prune masks. Nothing writes it any more;
// Load, behind LoadAny, is the repository's one remaining gob reader, kept
// so those files still open.
type Snapshot struct {
	// Builder is the model-zoo name ("small", "large", "fashion",
	// "minivgg").
	Builder string
	// Input is the per-sample input geometry.
	Input Input
	// Classes is the output width.
	Classes int
	// Params is the flat parameter vector (ParamsVector layout).
	Params []float64
	// Masks maps prunable layer index to its pruned-unit mask.
	Masks map[int][]bool
}

// Load reads a gob snapshot from r and reconstructs the model: the
// registered builder recreates the architecture (with throwaway
// initialization), the prune masks are re-installed, and the parameter
// vector is restored.
func Load(r io.Reader) (*Sequential, error) {
	var snap Snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("nn: Load: %w", err)
	}
	build, err := BuilderByName(snap.Builder)
	if err != nil {
		return nil, fmt.Errorf("nn: Load: %w", err)
	}
	if snap.Input.Elems() <= 0 || snap.Classes <= 0 {
		return nil, fmt.Errorf("nn: Load: invalid geometry %+v / %d classes", snap.Input, snap.Classes)
	}
	m := build(snap.Input, snap.Classes, rand.New(rand.NewSource(0)))
	if len(snap.Params) != m.NumParams() {
		return nil, fmt.Errorf("nn: Load: snapshot has %d params, architecture wants %d",
			len(snap.Params), m.NumParams())
	}
	for li, mask := range snap.Masks {
		if err := installMask(m, li, mask); err != nil {
			return nil, fmt.Errorf("nn: Load: %w", err)
		}
	}
	// Parameters last: SetParamsVector re-applies the masks installed
	// above, so masked units stay zero even if the snapshot was edited.
	m.SetParamsVector(snap.Params)
	return m, nil
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
