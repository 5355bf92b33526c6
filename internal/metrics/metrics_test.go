package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// constantModel always predicts the same class by biasing the final layer.
func constantModel(class, classes int) *nn.Sequential {
	rng := rand.New(rand.NewSource(1))
	d := nn.NewDense("fc", 16*16, classes, rng)
	d.W.Value.Zero()
	d.B.Value.Zero()
	d.B.Value.Data[class] = 10
	return nn.NewSequential(nn.NewFlatten("flat"), d)
}

func tinyDS(perClass int, seed int64) (*dataset.Dataset, *dataset.Dataset) {
	return dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: perClass, TestPerClass: perClass, Seed: seed})
}

func TestAccuracyConstantPredictor(t *testing.T) {
	_, test := tinyDS(5, 2)
	m := constantModel(3, 10)
	got := Accuracy(m, test, 0)
	if math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("constant predictor accuracy %g, want 0.1", got)
	}
}

func TestAccuracyEmptyDataset(t *testing.T) {
	m := constantModel(0, 10)
	empty := &dataset.Dataset{Shape: dataset.Shape{C: 1, H: 16, W: 16}, Classes: 10}
	if got := Accuracy(m, empty, 0); got != 0 {
		t.Fatalf("accuracy on empty dataset = %g, want 0", got)
	}
}

func TestAccuracyBatchBoundaries(t *testing.T) {
	_, test := tinyDS(5, 3)
	m := constantModel(7, 10)
	// Different batch sizes must give the same result.
	a := Accuracy(m, test, 7)
	b := Accuracy(m, test, 50)
	c := Accuracy(m, test, 1)
	if a != b || b != c {
		t.Fatalf("accuracy depends on batch size: %g %g %g", a, b, c)
	}
}

func TestAttackSuccessRateConstantTarget(t *testing.T) {
	_, test := tinyDS(5, 4)
	cfg := dataset.PoisonConfig{
		Trigger:     dataset.PixelPattern(1, test.Shape),
		VictimLabel: 9,
		TargetLabel: 4,
	}
	// A model that always predicts the attack target has AA = 1.
	if got := AttackSuccessRate(constantModel(4, 10), test, cfg, 0); got != 1 {
		t.Fatalf("AA = %g, want 1", got)
	}
	// A model that never predicts it has AA = 0.
	if got := AttackSuccessRate(constantModel(5, 10), test, cfg, 0); got != 0 {
		t.Fatalf("AA = %g, want 0", got)
	}
}

// UnitMeanActivations reduces a layer-output batch to one average activation
// value per output unit, the aᵢ statistic of the paper's federated pruning
// step (§IV-A). ReLU is applied during the reduction, so the statistic is
// the mean *post-activation* output regardless of whether act was captured
// before or after the network's own ReLU layer.
//
// act must have shape (N, units) for dense layers or (N, units, H, W) for
// convolutional layers. It is the single-pass reference LocalActivations is
// checked against.
func UnitMeanActivations(act *tensor.Tensor, units int) []float64 {
	var spatial int
	switch act.Rank() {
	case 2:
		spatial = 1
	case 4:
		spatial = act.Dim(2) * act.Dim(3)
	default:
		panic(fmt.Sprintf("nn: UnitMeanActivations rank %d, want 2 or 4", act.Rank()))
	}
	if act.Dim(1) != units {
		panic(fmt.Sprintf("nn: UnitMeanActivations %d units in act, want %d", act.Dim(1), units))
	}
	n := act.Dim(0)
	out := make([]float64, units)
	for s := 0; s < n; s++ {
		for u := 0; u < units; u++ {
			base := (s*units + u) * spatial
			sum := 0.0
			for i := 0; i < spatial; i++ {
				if v := act.Data[base+i]; v > 0 {
					sum += v
				}
			}
			out[u] += sum
		}
	}
	inv := 1.0 / float64(n*spatial)
	for u := range out {
		out[u] *= inv
	}
	return out
}

// TestLocalActivationsMatchesManual checks the recording against one
// full-batch pass through the layers' own float64 Forward, up to the
// recorded layer. The float32 backend narrows the input once and widens
// only the recorded layer, so it agrees within forward tolerance.
func TestLocalActivationsMatchesManual(t *testing.T) {
	cases := []struct {
		name    string
		build   nn.ModelBuilder
		gen     func(dataset.GenConfig) (*dataset.Dataset, *dataset.Dataset)
		backend nn.Backend
		tol     float64
	}{
		{"SmallCNN/float64", nn.NewSmallCNN, dataset.GenSynthMNIST, nn.Float64, 1e-9},
		{"MiniVGG/float32", nn.NewMiniVGG, dataset.GenSynthCIFAR, nn.Float32, 1e-4},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(6))
		_, test := c.gen(dataset.GenConfig{TrainPerClass: 3, TestPerClass: 3, Seed: 7})
		m := c.build(nn.Input{C: test.Shape.C, H: test.Shape.H, W: test.Shape.W}, test.Classes, rng)
		m.SetBackend(c.backend)
		li := m.LastConvIndex()
		got := LocalActivations(m, li, test, 8)
		act, _ := test.Batch(0, test.Len())
		for i := 0; i <= li; i++ {
			act = m.Layer(i).Forward(act, false)
		}
		want := UnitMeanActivations(act, m.Layer(li).(nn.Prunable).Units())
		for i := range want {
			if math.Abs(got[i]-want[i]) > c.tol*(1+math.Abs(want[i])) {
				t.Fatalf("%s unit %d: %g vs %g", c.name, i, got[i], want[i])
			}
		}
	}
}

func TestLocalActivationsRejectsNonPrunable(t *testing.T) {
	_, test := tinyDS(2, 8)
	m := constantModel(0, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("non-prunable layer accepted")
		}
	}()
	LocalActivations(m, 0, test, 0) // layer 0 is Flatten
}

// Sanity: a unit whose filter is zeroed reports zero activation.
func TestLocalActivationsZeroForDeadUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	_, test := tinyDS(2, 10)
	m := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rng)
	li := m.LastConvIndex()
	m.PruneModelUnit(li, 3)
	acts := LocalActivations(m, li, test, 0)
	if acts[3] != 0 {
		t.Fatalf("dead unit activation %g, want 0", acts[3])
	}
}
