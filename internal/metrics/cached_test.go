package metrics

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/nn"
)

// Equivalence of the cached SuffixEvaluator against the naive metrics
// (ISSUE 3): every score it returns — unscoped, suffix-scoped or
// prune-scoped — must be bit-identical to a fresh full forward pass.

func suffixFixture(t *testing.T) (*nn.Sequential, *dataset.Dataset, *dataset.Dataset, dataset.PoisonConfig) {
	t.Helper()
	_, test := dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 2, TestPerClass: 15, Seed: 73})
	rng := rand.New(rand.NewSource(74))
	m := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rng)
	poison := dataset.PoisonConfig{
		Trigger:     dataset.PixelPattern(3, dataset.Shape{C: 1, H: 16, W: 16}),
		VictimLabel: 9,
		TargetLabel: 2,
	}
	return m, test, test, poison
}

func wantBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %v, want %v (bitwise)", what, got, want)
	}
}

func TestSuffixEvaluatorUnscopedMatchesAccuracy(t *testing.T) {
	m, ds, _, _ := suffixFixture(t)
	e := NewSuffixEvaluator(ds, 0)
	for i := 0; i < 2; i++ { // second call reuses warm buffers
		wantBits(t, "unscoped Evaluate", e.Evaluate(m), Accuracy(m, ds, 0))
	}
}

func TestCachedASRMatchesAttackSuccessRate(t *testing.T) {
	m, _, test, poison := suffixFixture(t)
	e := NewCachedASR(test, poison, 0)
	wantBits(t, "cached ASR", e.Evaluate(m), AttackSuccessRate(m, test, poison, 0))
	if e.ds.Len() == 0 {
		t.Fatal("memoized poisoned test set is empty")
	}
}

func TestSuffixScopeBitIdentical(t *testing.T) {
	m, ds, _, _ := suffixFixture(t)
	e := NewSuffixEvaluator(ds, 17) // odd batch: exercises a short tail batch
	// AW-style scopes: mutate only the boundary layer's weights.
	for _, li := range []int{m.LastConvIndex(), m.NumLayers() - 1} {
		e.BeginSuffix(m, li)
		w := m.Layer(li).(interface{ Params() []*nn.Param }).Params()[0].Value
		for step := 0; step < 4; step++ {
			for i := step; i < w.Len(); i += 5 {
				w.Data[i] *= 0.5
			}
			wantBits(t, "suffix-scoped Evaluate", e.Evaluate(m), Accuracy(m, ds, 17))
		}
		e.EndScope()
		wantBits(t, "after EndScope", e.Evaluate(m), Accuracy(m, ds, 17))
	}
}

func TestPruneScopeBitIdentical(t *testing.T) {
	m, ds, _, _ := suffixFixture(t)
	li := m.LastConvIndex()
	e := NewSuffixEvaluator(ds, 0)
	e.BeginPrune(m, li)
	defer e.EndScope()
	units := m.Layer(li).(nn.Prunable).Units()
	order := rand.New(rand.NewSource(75)).Perm(units)
	for _, u := range order[:units-1] {
		m.PruneModelUnit(li, u)
		wantBits(t, "prune-scoped Evaluate", e.Evaluate(m), Accuracy(m, ds, 0))
	}
}

func TestPruneScopeRevertBitIdentical(t *testing.T) {
	m, ds, _, _ := suffixFixture(t)
	li := m.LastConvIndex()
	e := NewSuffixEvaluator(ds, 0)
	e.BeginPrune(m, li)
	defer e.EndScope()
	before := e.Evaluate(m)
	snap := m.CaptureUnit(li, 6, nn.UnitSnapshot{})
	m.PruneModelUnit(li, 6)
	wantBits(t, "pruned", e.Evaluate(m), Accuracy(m, ds, 0))
	m.RestoreUnit(snap)
	// A revert only un-masks: the cached prefix stays valid and the score
	// returns to the pre-prune value exactly.
	wantBits(t, "after restore", e.Evaluate(m), before)
	wantBits(t, "after restore vs naive", e.Evaluate(m), Accuracy(m, ds, 0))
}

func TestPruneScopeWithBatchNormSuffix(t *testing.T) {
	_, test := dataset.GenSynthCIFAR(dataset.GenConfig{TrainPerClass: 1, TestPerClass: 6, Seed: 76})
	rng := rand.New(rand.NewSource(77))
	m := nn.NewMiniVGG(nn.Input{C: 3, H: 16, W: 16}, 10, rng)
	li := -1 // first conv directly followed by a BatchNorm
	for i := 0; i < m.NumLayers()-1; i++ {
		if _, ok := m.Layer(i).(*nn.Conv2D); ok {
			if _, ok := m.Layer(i + 1).(*nn.BatchNorm2D); ok {
				li = i
				break
			}
		}
	}
	if li < 0 {
		t.Fatal("MiniVGG has no conv+BN pair")
	}
	e := NewSuffixEvaluator(test, 0)
	e.BeginPrune(m, li)
	defer e.EndScope()
	for _, u := range []int{0, 3, 5} {
		m.PruneModelUnit(li, u) // prunes the BN channel too
		wantBits(t, "prune with BN suffix", e.Evaluate(m), Accuracy(m, test, 0))
	}
}

func TestScopedEvaluatorFallsBackForOtherModels(t *testing.T) {
	m, ds, _, _ := suffixFixture(t)
	other := m.Clone()
	other.Params()[0].Value.Data[0] += 1
	e := NewSuffixEvaluator(ds, 0)
	e.BeginPrune(m, m.LastConvIndex())
	defer e.EndScope()
	wantBits(t, "other model inside scope", e.Evaluate(other), Accuracy(other, ds, 0))
	// The scope on m must still be intact afterwards.
	m.PruneModelUnit(m.LastConvIndex(), 1)
	wantBits(t, "scoped model after fallback", e.Evaluate(m), Accuracy(m, ds, 0))
}
