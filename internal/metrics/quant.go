package metrics

import (
	"fmt"
	"math"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/nn"
)

// ReportQuant selects the numeric representation of a client's recorded
// activation report (DESIGN.md §14). Float64 is the reference path —
// LocalActivations verbatim; Int8 quantizes the recorded vector through an
// affine (scale, zero-point) map before it is ranked, voted on, or shipped.
// Int8 is the single lossy boundary of the report path; everything
// downstream of the quantizer (ranking, voting, wire codecs) is lossless.
type ReportQuant int

const (
	// ReportFloat64 records activations at full float64 precision.
	ReportFloat64 ReportQuant = iota
	// ReportInt8 records activations as affine-quantized int8 codes.
	ReportInt8
)

// String implements fmt.Stringer (and flag.Value-style printing).
func (q ReportQuant) String() string {
	switch q {
	case ReportFloat64:
		return "float64"
	case ReportInt8:
		return "int8"
	default:
		return fmt.Sprintf("ReportQuant(%d)", int(q))
	}
}

// ParseReportQuant parses the -report-quant flag value.
func ParseReportQuant(s string) (ReportQuant, error) {
	switch s {
	case "float64", "f64", "":
		return ReportFloat64, nil
	case "int8", "i8":
		return ReportInt8, nil
	default:
		return 0, fmt.Errorf("metrics: unknown report quantization %q (want float64 or int8)", s)
	}
}

// QuantActs is an int8-quantized activation vector together with its affine
// dequantization parameters: the recorded activation of unit i is
// approximately Zero + Scale·(Q[i]+128). Zero is the dequantized value of
// the lowest code (−128), i.e. the minimum of the source vector, so the
// representable range is exactly [Zero, Zero+255·Scale]. A constant source
// vector (or an empty one) quantizes to Scale 0 with every code at −128 and
// dequantizes exactly.
//
// Because the affine map is monotonic (Scale ≥ 0), ordering neurons by code
// is the same as ordering them by dequantized activation — which is why the
// pruning defense ranks Q directly (core.RanksFromActivations takes the
// codes) without ever materializing float64s.
type QuantActs struct {
	Scale float64
	Zero  float64
	Q     []int8
}

// QuantizeActivations quantizes a recorded activation vector into a freshly
// allocated QuantActs.
func QuantizeActivations(acts []float64) QuantActs {
	var q QuantActs
	q.Quantize(acts)
	return q
}

// Quantize requantizes q from acts in place, reusing q.Q when it has
// capacity — the warm path performs no allocations. Values must be finite;
// activations are post-ReLU means, so this holds by construction.
func (q *QuantActs) Quantize(acts []float64) {
	if cap(q.Q) < len(acts) {
		q.Q = make([]int8, len(acts))
	}
	q.Q = q.Q[:len(acts)]
	if len(acts) == 0 {
		q.Scale, q.Zero = 0, 0
		return
	}
	lo, hi := acts[0], acts[0]
	for _, a := range acts[1:] {
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	q.Zero = lo
	q.Scale = (hi - lo) / 255
	if q.Scale == 0 {
		for i := range q.Q {
			q.Q[i] = -128
		}
		return
	}
	inv := 1 / q.Scale
	for i, a := range acts {
		code := math.Round((a - lo) * inv)
		// Clamp defensively: rounding keeps codes in [0,255] for finite
		// inputs, but a belt keeps bad data from wrapping the int8.
		if code < 0 {
			code = 0
		} else if code > 255 {
			code = 255
		}
		q.Q[i] = int8(int(code) - 128)
	}
}

// RecordQuantActivations is the int8 activation recorder: it records the
// paper's per-neuron average activation statistic (LocalActivations) for
// the Prunable layer at layerIdx and accumulates it into q's affine int8
// representation. q's buffers are reused across calls.
func RecordQuantActivations(q *QuantActs, m *nn.Sequential, layerIdx int, ds *dataset.Dataset, batch int) {
	q.Quantize(LocalActivations(m, layerIdx, ds, batch))
}
