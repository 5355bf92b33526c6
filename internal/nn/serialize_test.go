package nn

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// gobSnapshot encodes snap the way fedtrain builds older than the versioned
// envelope wrote a model: one gob-encoded Snapshot.
func gobSnapshot(t *testing.T, snap Snapshot) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// legacySnapshot is the gob file those builds wrote for m: parameters plus
// the mask of every prunable layer with a pruned unit.
func legacySnapshot(t *testing.T, builder string, in Input, classes int, m *Sequential) *bytes.Buffer {
	t.Helper()
	snap := Snapshot{Builder: builder, Input: in, Classes: classes,
		Params: m.ParamsVector(), Masks: map[int][]bool{}}
	for i, l := range m.Layers() {
		p, ok := l.(Prunable)
		if !ok || p.PrunedCount() == 0 {
			continue
		}
		mask := make([]bool, p.Units())
		for u := range mask {
			mask[u] = p.UnitPruned(u)
		}
		snap.Masks[i] = mask
	}
	return gobSnapshot(t, snap)
}

func TestLegacyLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	in := Input{C: 1, H: 16, W: 16}
	m := NewSmallCNN(in, 10, rng)
	m.PruneModelUnit(m.LastConvIndex(), 2)
	got, err := Load(legacySnapshot(t, "small", in, 10, m))
	if err != nil {
		t.Fatal(err)
	}
	a, b := m.ParamsVector(), got.ParamsVector()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("param %d differs after round trip", i)
		}
	}
	conv := got.Layer(m.LastConvIndex()).(*Conv2D)
	if !conv.UnitPruned(2) || conv.PrunedCount() != 1 {
		t.Fatal("prune mask lost in round trip")
	}
	// Loaded model must evaluate identically.
	x := tensor.New(2, 1, 16, 16)
	x.Randn(rng, 1)
	if !m.Forward(x, false).Equal(got.Forward(x, false), 0) {
		t.Fatal("loaded model evaluates differently")
	}
}

func TestLegacyLoadMiniVGGWithStats(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	in := Input{C: 3, H: 16, W: 16}
	m := NewMiniVGG(in, 10, rng)
	// Push the running statistics away from their defaults.
	x := tensor.New(4, 3, 16, 16)
	x.Randn(rng, 2)
	m.Forward(x, true)
	got, err := Load(legacySnapshot(t, "minivgg", in, 10, m))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Forward(x, false).Equal(got.Forward(x, false), 0) {
		t.Fatal("running statistics lost in round trip")
	}
}

func TestLoadRejectsCorruptSnapshots(t *testing.T) {
	// Garbage bytes.
	if _, err := Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Wrong parameter count.
	rng := rand.New(rand.NewSource(93))
	in := Input{C: 1, H: 16, W: 16}
	m := NewSmallCNN(in, 10, rng)
	// Corruption: declare classes=3 in a fresh snapshot with the old
	// parameter vector so the parameter count mismatches.
	bad := Snapshot{Builder: "small", Input: in, Classes: 3, Params: m.ParamsVector()}
	if _, err := Load(gobSnapshot(t, bad)); err == nil {
		t.Fatal("mismatched parameter count accepted")
	}
	// Mask for a non-prunable layer.
	bad = Snapshot{Builder: "small", Input: in, Classes: 10,
		Params: m.ParamsVector(), Masks: map[int][]bool{1: {true}}}
	if _, err := Load(gobSnapshot(t, bad)); err == nil {
		t.Fatal("mask on non-prunable layer accepted")
	}
}
