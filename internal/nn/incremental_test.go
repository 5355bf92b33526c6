package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// Bit-identity of the split forward pass (ISSUE 3): for every boundary li,
// ForwardTo(li, x) followed by ForwardFrom(li, ·) must reproduce
// Forward(x, false) exactly, on cold buffers and on warm ones.

func bitsEqualSlice(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v, want %v (bitwise)", what, i, got[i], want[i])
		}
	}
}

func splitModels(t *testing.T) []struct {
	name string
	m    *Sequential
	c    int
} {
	t.Helper()
	rng := rand.New(rand.NewSource(81))
	return []struct {
		name string
		m    *Sequential
		c    int
	}{
		{"small-cnn", NewSmallCNN(Input{C: 1, H: 16, W: 16}, 10, rng), 1},
		{"mini-vgg", NewMiniVGG(Input{C: 3, H: 16, W: 16}, 10, rng), 3},
	}
}

func TestForwardSplitBitIdenticalAtEveryBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, tc := range splitModels(t) {
		t.Run(tc.name, func(t *testing.T) {
			x := tensor.New(5, tc.c, 16, 16)
			x.Randn(rng, 1)
			want := tc.m.Forward(x, false).Clone()
			for li := 0; li <= tc.m.NumLayers(); li++ {
				b := tc.m.ForwardTo(li, x)
				out := tc.m.ForwardFrom(li, b)
				bitsEqualSlice(t, tc.name+" split", out.Data, want.Data)
			}
		})
	}
}

func TestForwardSplitBitIdenticalOnWarmBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, tc := range splitModels(t) {
		t.Run(tc.name, func(t *testing.T) {
			x := tensor.New(4, tc.c, 16, 16)
			x.Randn(rng, 1)
			want := tc.m.Forward(x, false).Clone()
			for li := 0; li <= tc.m.NumLayers(); li++ {
				// Replaying the suffix twice exercises the warm buffers — the
				// cached evaluators' steady state.
				b := tc.m.ForwardTo(li, x)
				for rep := 0; rep < 2; rep++ {
					out := tc.m.ForwardFrom(li, b)
					bitsEqualSlice(t, tc.name+" warm split", out.Data, want.Data)
				}
			}
			out := tc.m.Forward(x, false)
			bitsEqualSlice(t, tc.name+" full pass after the splits", out.Data, want.Data)
		})
	}
}

func TestCaptureRestoreUnitRoundTrip(t *testing.T) {
	for _, tc := range splitModels(t) {
		t.Run(tc.name, func(t *testing.T) {
			var snap UnitSnapshot
			for li, l := range tc.m.layers {
				// Skip BatchNorm targets: PruneModelUnit treats a BN following
				// a conv as part of that conv's unit, which is what the
				// defense prunes.
				if _, ok := l.(Prunable); !ok {
					continue
				}
				if _, isBN := l.(*BatchNorm2D); isBN {
					continue
				}
				before := tc.m.ParamsVector()
				unit := li % tc.m.Layer(li).(Prunable).Units()
				snap = tc.m.CaptureUnit(li, unit, snap)
				tc.m.PruneModelUnit(li, unit)
				if !tc.m.Layer(li).(Prunable).UnitPruned(unit) {
					t.Fatalf("layer %d unit %d not marked pruned", li, unit)
				}
				tc.m.RestoreUnit(snap)
				if tc.m.Layer(li).(Prunable).UnitPruned(unit) {
					t.Fatalf("layer %d unit %d still pruned after restore", li, unit)
				}
				bitsEqualSlice(t, "params after restore", tc.m.ParamsVector(), before)
			}
		})
	}
}

func TestCaptureRestoreUnitKeepsPrunedFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	m := NewSmallCNN(Input{C: 1, H: 16, W: 16}, 10, rng)
	li := m.LastConvIndex()
	m.PruneModelUnit(li, 4)
	before := m.ParamsVector()
	snap := m.CaptureUnit(li, 4, UnitSnapshot{})
	m.PruneModelUnit(li, 4) // idempotent prune of an already-dead unit
	m.RestoreUnit(snap)
	if !m.Layer(li).(Prunable).UnitPruned(4) {
		t.Fatal("restore cleared a prune flag that was set at capture time")
	}
	bitsEqualSlice(t, "params", m.ParamsVector(), before)
}

func TestCaptureUnitReusesSnapshotStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	m := NewSmallCNN(Input{C: 1, H: 16, W: 16}, 10, rng)
	li := m.LastConvIndex()
	snap := m.CaptureUnit(li, 0, UnitSnapshot{})
	backing := &snap.vals[0]
	before := m.ParamsVector()
	for u := 1; u < m.Layer(li).(Prunable).Units(); u++ {
		snap = m.CaptureUnit(li, u, snap)
		if &snap.vals[0] != backing {
			t.Fatalf("capture of unit %d reallocated the snapshot backing", u)
		}
		m.PruneModelUnit(li, u)
		m.RestoreUnit(snap)
	}
	bitsEqualSlice(t, "params", m.ParamsVector(), before)
}
