package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestParseReportQuant(t *testing.T) {
	cases := []struct {
		in   string
		want ReportQuant
		err  bool
	}{
		{"float64", ReportFloat64, false},
		{"f64", ReportFloat64, false},
		{"", ReportFloat64, false},
		{"int8", ReportInt8, false},
		{"i8", ReportInt8, false},
		{"int4", 0, true},
	}
	for _, c := range cases {
		got, err := ParseReportQuant(c.in)
		if (err != nil) != c.err {
			t.Fatalf("ParseReportQuant(%q) err = %v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Fatalf("ParseReportQuant(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if ReportFloat64.String() != "float64" || ReportInt8.String() != "int8" {
		t.Fatalf("String(): %q / %q", ReportFloat64, ReportInt8)
	}
}

func TestQuantizeRoundtripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(700)
		acts := make([]float64, n)
		for i := range acts {
			acts[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
		}
		q := QuantizeActivations(acts)
		if len(q.Q) != n {
			t.Fatalf("len(Q) = %d, want %d", len(q.Q), n)
		}
		back := q.Dequantize()
		for i := range acts {
			if err := math.Abs(back[i] - acts[i]); err > q.Scale/2+1e-12 {
				t.Fatalf("trial %d unit %d: |%g - %g| = %g > scale/2 = %g",
					trial, i, back[i], acts[i], err, q.Scale/2)
			}
		}
	}
}

func TestQuantizeEndpointsExact(t *testing.T) {
	acts := []float64{3.5, -1.25, 0, 7.75, 2}
	q := QuantizeActivations(acts)
	back := q.Dequantize()
	// Min maps to code −128 and max to +127, both reconstructed exactly.
	if back[1] != -1.25 {
		t.Fatalf("min reconstructs to %g, want -1.25", back[1])
	}
	if math.Abs(back[3]-7.75) > 1e-12 {
		t.Fatalf("max reconstructs to %g, want 7.75", back[3])
	}
	if q.Q[1] != -128 || q.Q[3] != 127 {
		t.Fatalf("endpoint codes %d/%d, want -128/127", q.Q[1], q.Q[3])
	}
}

func TestQuantizeConstantAndEmpty(t *testing.T) {
	q := QuantizeActivations([]float64{2.5, 2.5, 2.5})
	if q.Scale != 0 || q.Zero != 2.5 {
		t.Fatalf("constant vector: Scale=%g Zero=%g", q.Scale, q.Zero)
	}
	for i, c := range q.Q {
		if c != -128 {
			t.Fatalf("constant vector code[%d] = %d, want -128", i, c)
		}
	}
	for _, v := range q.Dequantize() {
		if v != 2.5 {
			t.Fatalf("constant vector dequantizes to %g", v)
		}
	}
	q = QuantizeActivations(nil)
	if len(q.Q) != 0 || q.Scale != 0 || q.Zero != 0 {
		t.Fatalf("empty vector: %+v", q)
	}
}

func TestQuantizePreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	acts := make([]float64, 512)
	for i := range acts {
		acts[i] = rng.Float64() * 10
	}
	q := QuantizeActivations(acts)
	for i := range acts {
		for j := range acts {
			if acts[i] > acts[j] && q.Q[i] < q.Q[j] {
				t.Fatalf("order violated: acts[%d]=%g > acts[%d]=%g but codes %d < %d",
					i, acts[i], j, acts[j], q.Q[i], q.Q[j])
			}
		}
	}
}

func TestQuantizeReusesBuffers(t *testing.T) {
	var q QuantActs
	q.Quantize(make([]float64, 256))
	p0 := &q.Q[0]
	q.Quantize(make([]float64, 128))
	if len(q.Q) != 128 {
		t.Fatalf("len after shrink = %d", len(q.Q))
	}
	q.Quantize(make([]float64, 256))
	if &q.Q[0] != p0 {
		t.Fatal("Quantize reallocated a buffer it could reuse")
	}
}

// Dequantize reconstructs q's activation vector: the reference the tests
// hold Quantize to. The reconstruction error of each entry is at most
// Scale/2 — half a quantization step.
func (q QuantActs) Dequantize() []float64 {
	dst := make([]float64, len(q.Q))
	for i, c := range q.Q {
		dst[i] = q.Zero + q.Scale*float64(int(c)+128)
	}
	return dst
}
