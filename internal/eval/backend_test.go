package eval

import (
	"math"
	"reflect"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/nn"
)

// TestFloat32BackendParity is the end-to-end accuracy gate for the float32
// backend: the paper's MNIST scenario trained entirely on float32
// arithmetic must land within 0.5 percentage points of the float64
// reference on both benign test accuracy (TA) and attack success rate
// (ASR). Per-step rounding differences act as tiny parameter noise; the
// float64 aggregation and optimizer state keep the two runs on the same
// trajectory, so the final metrics agree to well under a point. The gate
// is MNIST's alone: Fashion trains to TA 80.8 on float64 and 82.5 on
// float32 (AA 84.4 on both), one more seed (ROADMAP, Finding C).
//
// It is also the precision oracle for the defense stages that do not
// train, on MNIST and Fashion. FP+AW runs on the float64-trained model
// twice: on the float64 federation, and on a clone of the float32
// federation's model that holds the float64 weights, reported on by the
// float32 participants and guarded by the float32 validation evaluator.
// Both must make the same decisions: the pruned units, every prune step
// and its accuracy, and the AW curve — each layer's Δ steps and zeroed
// counts, hence the final Δ and the total zeroed. What is not claimed: a
// fine-tuning round is federated training, and after one the two
// backends diverge (the All mode is not compared).
func TestFloat32BackendParity(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end federated training is slow")
	}
	t.Run("mnist", func(t *testing.T) {
		tr64, tr32 := fpawParity(t, MNISTScenario(9, 2))
		ta64, aa64, ta32, aa32 := tr64.TA(), tr64.AA(), tr32.TA(), tr32.AA()
		t.Logf("float64: TA=%.2f AA=%.2f; float32: TA=%.2f AA=%.2f", ta64, aa64, ta32, aa32)
		if d := math.Abs(ta64 - ta32); d > 0.5 {
			t.Errorf("TA differs by %.2f pp across backends (float64 %.2f, float32 %.2f), want <= 0.5", d, ta64, ta32)
		}
		if d := math.Abs(aa64 - aa32); d > 0.5 {
			t.Errorf("ASR differs by %.2f pp across backends (float64 %.2f, float32 %.2f), want <= 0.5", d, aa64, aa32)
		}
	})
	t.Run("fashion", func(t *testing.T) { fpawParity(t, FashionScenario(9, 2)) })
}

// fpawParity takes the float64 and float32 federations of s and fails t
// unless FP+AW on the float64-trained weights decides the same on both.
func fpawParity(t *testing.T, s Scenario) (tr64, tr32 *Trained) {
	t.Helper()
	tr64 = trained(t, s)
	s.Backend = nn.Float32
	tr32 = trained(t, s)
	cfg := modeConfig("fp+aw")
	_, want := tr64.Defend(cfg)
	m := tr32.Server.Model.Clone()
	m.SetParamsVector(tr64.Server.Model.ParamsVector())
	if m.Backend() != nn.Float32 {
		t.Fatalf("clone of the float32 model runs %v", m.Backend())
	}
	got := core.RunPipeline(m, fl.ReportClients(tr32.Participants), tr32.Server, tr32.ValidationEvaluator(), cfg)
	if len(want.Prune.Pruned) == 0 || want.AW.Zeroed == 0 {
		t.Fatalf("FP+AW did nothing on float64 (pruned %v, zeroed %d): the oracle compares nothing", want.Prune.Pruned, want.AW.Zeroed)
	}
	t.Logf("float64 FP+AW: pruned %v, Δ=%v, zeroed %d", want.Prune.Pruned, want.AW.FinalDelta, want.AW.Zeroed)
	if !reflect.DeepEqual(got.Prune.Pruned, want.Prune.Pruned) || !reflect.DeepEqual(got.Prune.Steps, want.Prune.Steps) {
		t.Errorf("pruning differs across backends:\nfloat32 pruned %v steps %v\nfloat64 pruned %v steps %v",
			got.Prune.Pruned, got.Prune.Steps, want.Prune.Pruned, want.Prune.Steps)
	}
	awDecisions := func(r core.AWResult) []core.AWPoint {
		var pts []core.AWPoint
		for _, p := range r.Curve {
			pts = append(pts, core.AWPoint{Delta: p.Delta, Zeroed: p.Zeroed})
		}
		return pts
	}
	if got.AW.FinalDelta != want.AW.FinalDelta || got.AW.Zeroed != want.AW.Zeroed ||
		!reflect.DeepEqual(awDecisions(got.AW), awDecisions(want.AW)) {
		t.Errorf("AW differs across backends:\nfloat32 Δ=%v zeroed=%d curve %v\nfloat64 Δ=%v zeroed=%d curve %v",
			got.AW.FinalDelta, got.AW.Zeroed, got.AW.Curve, want.AW.FinalDelta, want.AW.Zeroed, want.AW.Curve)
	}
	return tr64, tr32
}

// A float32 grid runs every cell on float32: each planned training builds
// a float32 template (the cmd/fedbench -backend plumbing).
func TestGridBackendBuildsFloat32Templates(t *testing.T) {
	g := plan(Specs(PaperSweep(false)), nn.Float32)
	for _, tr := range g.trainings {
		if b := tr.s.Backend; b != nn.Float32 {
			t.Fatalf("%s: scenario backend %v, want Float32", tr.s.Name, b)
		}
	}
	for _, of := range []func(int, int) Scenario{MNISTScenario, FashionScenario, CIFARScenario} {
		g := plan([]Spec{{ID: "one", plan: func(g *grid) {
			g.after(of(9, 2), func(*Trained) []Cell { return nil })
		}}}, nn.Float32)
		if template, _, _, _ := Components(g.trainings[0].s); template.Backend() != nn.Float32 {
			t.Fatalf("%s: template backend %v, want Float32", g.trainings[0].s.Name, template.Backend())
		}
	}
}
