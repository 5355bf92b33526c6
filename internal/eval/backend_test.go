package eval

import (
	"math"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/nn"
)

// TestFloat32BackendMNISTParity is the end-to-end accuracy gate for the
// float32 backend: the paper's MNIST scenario trained entirely on float32
// arithmetic must land within 0.5 percentage points of the float64
// reference on both benign test accuracy (TA) and attack success rate
// (ASR). Per-step rounding differences act as tiny parameter noise; the
// float64 aggregation and optimizer state keep the two runs on the same
// trajectory, so the final metrics agree to well under a point.
func TestFloat32BackendMNISTParity(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end federated training is slow")
	}
	run := func(b nn.Backend) (ta, aa float64) {
		s := MNISTScenario(9, 2)
		s.Backend = b
		tr := Run(s)
		return tr.TA(), tr.AA()
	}
	ta64, aa64 := run(nn.Float64)
	ta32, aa32 := run(nn.Float32)
	t.Logf("float64: TA=%.2f AA=%.2f; float32: TA=%.2f AA=%.2f", ta64, aa64, ta32, aa32)
	if d := math.Abs(ta64 - ta32); d > 0.5 {
		t.Errorf("TA differs by %.2f pp across backends (float64 %.2f, float32 %.2f), want <= 0.5", d, ta64, ta32)
	}
	if d := math.Abs(aa64 - aa32); d > 0.5 {
		t.Errorf("ASR differs by %.2f pp across backends (float64 %.2f, float32 %.2f), want <= 0.5", d, aa64, aa32)
	}
}

// A float32 grid runs every cell on float32: each planned training builds
// a float32 template (the cmd/fedbench -backend plumbing).
func TestGridBackendBuildsFloat32Templates(t *testing.T) {
	g, _ := plan(Specs(PaperSweep(false)), nn.Float32)
	for _, tr := range g.trainings {
		if b := tr.s.Backend; b != nn.Float32 {
			t.Fatalf("%s: scenario backend %v, want Float32", tr.s.Name, b)
		}
	}
	for _, of := range []func(int, int) Scenario{MNISTScenario, FashionScenario, CIFARScenario} {
		g, _ := plan([]Spec{{"one", func(g *grid) func() string {
			g.after(of(9, 2), func(*Trained) {})
			return nil
		}}}, nn.Float32)
		if template, _, _, _ := Components(g.trainings[0].s); template.Backend() != nn.Float32 {
			t.Fatalf("%s: template backend %v, want Float32", g.trainings[0].s.Name, template.Backend())
		}
	}
}
