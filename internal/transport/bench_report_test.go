package transport

import (
	"math/rand"
	"testing"
)

// benchReport is one client's full defense report at a 512-unit layer:
// the rank permutation and the vote bitmap.
type benchReport struct {
	ranks []int
	votes []bool
}

func makeBenchReport(units int) benchReport {
	rng := rand.New(rand.NewSource(8))
	ranks := rng.Perm(units)
	votes := make([]bool, units)
	for i := range ranks {
		ranks[i]++
		votes[i] = rng.Intn(2) == 1
	}
	return benchReport{ranks: ranks, votes: votes}
}

// TestReportByteBudget gates what a participant ships (DESIGN.md §9): at
// the layer widths the tree's models report on (16, 32, 50 and 64 units),
// a RanksDelta of any rank permutation plus a VoteBitmap is at most
// n + ⌈n/8⌉ + 5 bytes — a byte a rank (every delta of a permutation of
// 1..64 fits one zigzag varint byte, the first one at most two), a bit a
// vote, and two tags and two one-byte lengths. The sizes are exact counts,
// so the gate needs no timing run.
func TestReportByteBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{16, 32, 50, 64} {
		budget := n + (n+7)/8 + 5
		// The widest deltas a permutation has: n, 1, n-1, 2, …
		zigzag := make([]int, n)
		for i := range zigzag {
			if i%2 == 0 {
				zigzag[i] = n - i/2
			} else {
				zigzag[i] = 1 + i/2
			}
		}
		perms := [][]int{zigzag}
		for k := 0; k < 200; k++ {
			p := rng.Perm(n)
			for i := range p {
				p[i]++
			}
			perms = append(perms, p)
		}
		votes := make([]bool, n)
		total, worst := 0, 0
		for _, ranks := range perms {
			for i := range votes {
				votes[i] = rng.Intn(2) == 1
			}
			size := len(AppendVoteBitmap(AppendRanksDelta(nil, ranks), votes))
			total += size
			worst = max(worst, size)
			if size > budget {
				t.Errorf("%d units: report of ranks %v is %d B, budget %d B", n, ranks, size, budget)
			}
		}
		t.Logf("%d units: rank+vote report %.1f B mean, %d B worst, budget %d B", n, float64(total)/float64(len(perms)), worst, budget)
	}
}

// BenchmarkReportBytes measures the encoded size of one rank+vote report
// at a 512-unit layer and exports it as report-bytes/op.
func BenchmarkReportBytes(b *testing.B) {
	rep := makeBenchReport(512)
	var p []byte
	for i := 0; i < b.N; i++ {
		p = AppendVoteBitmap(AppendRanksDelta(p[:0], rep.ranks), rep.votes)
	}
	b.ReportMetric(float64(len(p)), "report-bytes/op")
	b.SetBytes(int64(len(p)))
}

// BenchmarkReportRoundtrip measures encode+decode of one rank+vote report
// — construction of the report values is excluded.
func BenchmarkReportRoundtrip(b *testing.B) {
	rep := makeBenchReport(512)
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
}
