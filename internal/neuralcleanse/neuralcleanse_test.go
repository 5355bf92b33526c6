package neuralcleanse

import (
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
)

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %g, want 2", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("median = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Fatalf("median(nil) = %g, want 0", got)
	}
}

func TestDetectOutliersMAD(t *testing.T) {
	mk := func(norms ...float64) []ReversedTrigger {
		out := make([]ReversedTrigger, len(norms))
		for i, n := range norms {
			out[i] = ReversedTrigger{Label: i, MaskNorm: n}
		}
		return out
	}
	// Label 2 has a drastically smaller trigger: backdoor.
	flagged := DetectOutliersMAD(mk(50, 52, 3, 49, 51, 48, 50, 53, 47, 51), 2)
	if len(flagged) != 1 || flagged[0] != 2 {
		t.Fatalf("flagged %v, want [2]", flagged)
	}
	// Uniform norms: nothing flagged.
	if got := DetectOutliersMAD(mk(50, 50.2, 49.8, 50.1, 49.9), 2); len(got) != 0 {
		t.Fatalf("flagged %v on uniform norms", got)
	}
	// Larger-than-median norms must NOT be flagged (only small triggers
	// indicate backdoors).
	if got := DetectOutliersMAD(mk(50, 52, 500, 49, 51), 2); len(got) != 0 {
		t.Fatalf("flagged %v for a large-norm label", got)
	}
}

func TestStampDatasetInterpolates(t *testing.T) {
	ds := &dataset.Dataset{
		Shape:   dataset.Shape{C: 1, H: 2, W: 2},
		Classes: 2,
		Samples: []dataset.Sample{{X: []float64{0, 0, 1, 1}, Label: 0}},
	}
	trig := ReversedTrigger{
		Mask:    []float64{1, 0.5, 0, 0},
		Pattern: []float64{1, 1, 1, 1},
	}
	out := stampDataset(ds, trig)
	want := []float64{1, 0.5, 1, 1}
	for i, w := range want {
		if out.Samples[0].X[i] != w {
			t.Fatalf("stamped = %v, want %v", out.Samples[0].X, want)
		}
	}
	// Original untouched.
	if ds.Samples[0].X[0] != 0 {
		t.Fatal("stampDataset mutated input")
	}
}

// TestReverseFindsPlantedBackdoor trains a small model with a pixel
// backdoor and verifies that (a) the reversed trigger for the backdoored
// target label flips inputs, and (b) its mask norm is among the smallest.
func TestReverseFindsPlantedBackdoor(t *testing.T) {
	if testing.Short() {
		t.Skip("trigger reverse-engineering is slow")
	}
	rng := rand.New(rand.NewSource(60))
	train, test := dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 60, TestPerClass: 20, Seed: 4})
	poison := dataset.PoisonConfig{
		Trigger:     dataset.PixelPattern(3, train.Shape),
		VictimLabel: 9,
		TargetLabel: 1,
		Copies:      2,
	}
	poisoned := dataset.PoisonTrainSet(train, poison)
	m := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rng)
	fl.NewTrainer(fl.Config{LocalEpochs: 6, BatchSize: 20, LR: 0.05}).Train(m, poisoned, rng)
	if aa := metrics.AttackSuccessRate(m, test, poison, 0); aa < 0.8 {
		t.Fatalf("planted backdoor too weak for the test: AA=%.2f", aa)
	}

	cfg := Config{Steps: 80, Batch: 40, LR: 0.2, Lambda: 0.02}
	w := frozenClone(m)
	target := reverseTrigger(w, test, poison.TargetLabel, cfg)
	if target.FlipRate < 0.8 {
		t.Fatalf("reversed trigger flips only %.2f of inputs", target.FlipRate)
	}
	// Compare with a couple of benign labels: the backdoored label's
	// trigger should be no larger than theirs.
	for _, benign := range []int{3, 6} {
		b := reverseTrigger(w, test, benign, cfg)
		if target.MaskNorm > b.MaskNorm*1.5 {
			t.Fatalf("backdoor trigger norm %.2f vs benign label %d norm %.2f",
				target.MaskNorm, benign, b.MaskNorm)
		}
	}
}

func TestMitigateReducesAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("mitigation end-to-end is slow")
	}
	rng := rand.New(rand.NewSource(61))
	train, test := dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 60, TestPerClass: 20, Seed: 5})
	poison := dataset.PoisonConfig{
		Trigger:     dataset.PixelPattern(3, train.Shape),
		VictimLabel: 9,
		TargetLabel: 1,
		Copies:      2,
	}
	poisoned := dataset.PoisonTrainSet(train, poison)
	m := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rng)
	fl.NewTrainer(fl.Config{LocalEpochs: 6, BatchSize: 20, LR: 0.05}).Train(m, poisoned, rng)
	before := metrics.AttackSuccessRate(m, test, poison, 0)
	if before < 0.8 {
		t.Fatalf("planted backdoor too weak: AA=%.2f", before)
	}
	trig := reverseTrigger(frozenClone(m), test, poison.TargetLabel, Config{Steps: 80, Batch: 40, LR: 0.2, Lambda: 0.02})
	evalFn := metrics.NewSuffixEvaluator(test, 0)
	baseline := evalFn.Evaluate(m)
	pruned := Mitigate(m, trig, test, evalFn, baseline-0.1)
	if pruned == 0 {
		t.Fatal("mitigation pruned nothing")
	}
	after := metrics.AttackSuccessRate(m, test, poison, 0)
	if after > before {
		t.Fatalf("mitigation increased AA: %.2f -> %.2f", before, after)
	}
}

func TestReverseTriggerRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config accepted")
		}
	}()
	ReverseAll(nil, nil, Config{})
}

// frozenClone is the working model ReverseAll optimizes on.
func frozenClone(m *nn.Sequential) *nn.Sequential {
	w := m.Clone()
	nn.FreezeStats(w)
	return w
}
