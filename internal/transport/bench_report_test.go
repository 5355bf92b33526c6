package transport

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/metrics"
)

// benchReport is one client's full defense report at a 512-unit layer:
// the rank permutation, the vote bitmap and the mean activations they
// were derived from.
type benchReport struct {
	acts  []float64
	q     metrics.QuantActs
	ranks []int
	votes []bool
}

func makeBenchReport(units int) benchReport {
	rng := rand.New(rand.NewSource(8))
	acts := make([]float64, units)
	for i := range acts {
		acts[i] = rng.NormFloat64()
	}
	ranks := rng.Perm(units)
	votes := make([]bool, units)
	for i := range ranks {
		ranks[i]++
		votes[i] = rng.Intn(2) == 1
	}
	return benchReport{acts: acts, q: metrics.QuantizeActivations(acts), ranks: ranks, votes: votes}
}

// f64ActsBytes is the size of the same report with its activations at
// float64: a tag, the uvarint unit count and 8 bytes a unit, then the
// vote bitmap. No codec sends it; it is the reference the int8 report's
// saving is measured against.
func (r benchReport) f64ActsBytes() int {
	return 1 + len(binary.AppendUvarint(nil, uint64(len(r.acts)))) + 8*len(r.acts) + len(AppendVoteBitmap(nil, r.votes))
}

// TestReportByteBudget gates the bandwidth claim of DESIGN.md §14 at a
// 512-unit layer: the int8 activations+votes report stays within 700 B and
// at least 6x smaller than the float64-activation report of the same
// structure (598 B and 6.97x when the budget was set). The sizes are exact
// counts, so the gate needs no timing run.
func TestReportByteBudget(t *testing.T) {
	rep := makeBenchReport(512)
	int8Bytes := len(AppendVoteBitmap(AppendActs8(nil, rep.q), rep.votes))
	f64Bytes := rep.f64ActsBytes()
	shrink := float64(f64Bytes) / float64(int8Bytes)
	t.Logf("int8 report %d B, float64 activation report %d B, shrink %.2fx", int8Bytes, f64Bytes, shrink)
	if int8Bytes > 700 {
		t.Errorf("int8 report is %d B, budget 700 B", int8Bytes)
	}
	if shrink < 6 {
		t.Errorf("int8 report is %.2fx smaller than the float64 activation report, want >= 6x", shrink)
	}
}

// BenchmarkReportBytes measures the encoded size of one rank+vote report
// per report precision and exports it as report-bytes/op. The int8 case
// also exports shrink-vs-float64: how much smaller the quantized
// activation report is than the float64 activation report of identical
// structure. TestReportByteBudget gates both sizes.
func BenchmarkReportBytes(b *testing.B) {
	rep := makeBenchReport(512)
	bench := func(name string, encode func(dst []byte) []byte) {
		var p []byte
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p = encode(p[:0])
			}
			b.ReportMetric(float64(len(p)), "report-bytes/op")
			b.SetBytes(int64(len(p)))
		})
	}

	bench("float64", func(dst []byte) []byte {
		return AppendVoteBitmap(AppendRanksDelta(dst, rep.ranks), rep.votes)
	})

	// float64-fidelity activation report vs its int8 twin: same
	// information path (activations + votes), two precisions.
	actsF64 := float64(rep.f64ActsBytes())
	b.Run("int8", func(b *testing.B) {
		var p []byte
		for i := 0; i < b.N; i++ {
			p = AppendVoteBitmap(AppendActs8(p[:0], rep.q), rep.votes)
		}
		b.ReportMetric(float64(len(p)), "report-bytes/op")
		b.ReportMetric(actsF64/float64(len(p)), "shrink-vs-float64")
		b.SetBytes(int64(len(p)))
	})
}

// BenchmarkReportRoundtrip measures encode+decode of one rank+vote report
// per report precision — construction of the report values is excluded.
func BenchmarkReportRoundtrip(b *testing.B) {
	rep := makeBenchReport(512)

	b.Run("float64", func(b *testing.B) {
		b.ReportAllocs()
		var p []byte
		for i := 0; i < b.N; i++ {
			p = AppendRanksDelta(p[:0], rep.ranks)
			if _, err := DecodeRanksDelta(p); err != nil {
				b.Fatal(err)
			}
			p = AppendVoteBitmap(p[:0], rep.votes)
			if _, err := DecodeVoteBitmap(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("int8", func(b *testing.B) {
		b.ReportAllocs()
		var p []byte
		for i := 0; i < b.N; i++ {
			p = AppendActs8(p[:0], rep.q)
			if _, err := DecodeActs8(p); err != nil {
				b.Fatal(err)
			}
			p = AppendVoteBitmap(p[:0], rep.votes)
			if _, err := DecodeVoteBitmap(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}
