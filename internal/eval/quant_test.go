package eval

import (
	"math"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
)

// setReportQuant flips every participant's report precision in place.
// Report precision never feeds back into training, so one trained
// federation serves both defense runs.
func setReportQuant(parts []fl.Participant, q metrics.ReportQuant) {
	for _, p := range parts {
		p.(interface{ SetReportQuant(metrics.ReportQuant) }).SetReportQuant(q)
	}
}

// TestInt8ReportMNISTDefenseParity is the end-to-end fidelity gate for
// int8 activation reports (DESIGN.md §14): on the paper's MNIST scenario
// the defense driven by quantized reports must (a) produce a global prune
// order that agrees with the float64 reference everywhere except where
// quantization genuinely ties neighbouring activations, and (b) land the
// defended model within 0.5 percentage points of the reference on both
// benign test accuracy and attack success rate.
func TestInt8ReportMNISTDefenseParity(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end federated training is slow")
	}
	tr := Run(MNISTScenario(9, 2))
	clients := fl.ReportClients(tr.Participants)
	li := tr.Server.Model.LastConvIndex()

	// Report collection is pure evaluation — flipping the precision on the
	// same trained federation isolates quantization exactly.
	order := func(method core.PruneMethod, q metrics.ReportQuant) []int {
		setReportQuant(tr.Participants, q)
		cfg := core.DefaultPipelineConfig()
		cfg.Method = method
		return core.GlobalPruneOrder(tr.Server.Model, clients, li, cfg)
	}
	for _, method := range []core.PruneMethod{core.RAP, core.MVP} {
		o64 := order(method, metrics.ReportFloat64)
		o8 := order(method, metrics.ReportInt8)
		if len(o64) != len(o8) || len(o64) == 0 {
			t.Fatalf("%v: order lengths %d vs %d", method, len(o64), len(o8))
		}
		same, prefix := 0, 0
		for i := range o64 {
			if o64[i] == o8[i] {
				same++
				if prefix == i {
					prefix++
				}
			}
		}
		frac := float64(same) / float64(len(o64))
		t.Logf("%v: %d/%d positions agree (%.0f%%), common prefix %d", method, same, len(o64), 100*frac, prefix)
		// Pinned on the seeded scenario: the trained activations are far
		// enough apart that 8-bit codes never tie them, so the quantized
		// prune order matches the float64 reference exactly. A partial
		// mismatch here means the quantizer or the int8 rank/vote
		// constructors regressed, not benign noise.
		if same != len(o64) {
			t.Errorf("%v: only %d/%d prune-order positions agree with the float64 reference", method, same, len(o64))
		}
	}

	// Fine-tuning is a pure function of the trained federation too, so the
	// same Trained defends at both precisions.
	defend := func(q metrics.ReportQuant) (ta, aa float64) {
		setReportQuant(tr.Participants, q)
		m, _ := tr.Defend(core.DefaultPipelineConfig())
		return tr.ModelTA(m), tr.ModelAA(m)
	}
	ta64, aa64 := defend(metrics.ReportFloat64)
	ta8, aa8 := defend(metrics.ReportInt8)
	t.Logf("float64 reports: TA=%.2f AA=%.2f; int8 reports: TA=%.2f AA=%.2f", ta64, aa64, ta8, aa8)
	if d := math.Abs(ta64 - ta8); d > 0.5 {
		t.Errorf("TA differs by %.2f pp across report precisions (float64 %.2f, int8 %.2f), want <= 0.5", d, ta64, ta8)
	}
	if d := math.Abs(aa64 - aa8); d > 0.5 {
		t.Errorf("ASR differs by %.2f pp across report precisions (float64 %.2f, int8 %.2f), want <= 0.5", d, aa64, aa8)
	}
}
