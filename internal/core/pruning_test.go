package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

func TestRanksFromActivations(t *testing.T) {
	acts := []float64{0.5, 2.0, 0.1, 1.0}
	ranks := RanksFromActivations(acts)
	// Sorted desc: unit1 (2.0), unit3 (1.0), unit0 (0.5), unit2 (0.1).
	want := []int{3, 1, 4, 2}
	for i, w := range want {
		if ranks[i] != w {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
}

func TestRanksArePermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		acts := make([]float64, n)
		for i := range acts {
			acts[i] = r.Float64()
		}
		ranks := RanksFromActivations(acts)
		seen := make([]bool, n+1)
		for _, v := range ranks {
			if v < 1 || v > n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: relabeling clients (permuting the report list) does not change
// aggregated ranks — aggregation is client-order invariant.
func TestAggregateRanksPermutationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		clients, units := 2+r.Intn(5), 2+r.Intn(8)
		reports := make([][]int, clients)
		for c := range reports {
			perm := r.Perm(units)
			rep := make([]int, units)
			for i, p := range perm {
				rep[i] = p + 1
			}
			reports[c] = rep
		}
		a := AggregateRanks(reports)
		shuffled := append([][]int(nil), reports...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b := AggregateRanks(shuffled)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a single attacker among N clients can shift any neuron's mean
// rank by at most (P_L − 1)/N — the bounded-influence argument of §IV-A1.
func TestSingleAttackerRankInfluenceBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		clients, units := 3+r.Intn(6), 2+r.Intn(10)
		honest := make([][]int, clients)
		for c := range honest {
			perm := r.Perm(units)
			rep := make([]int, units)
			for i, p := range perm {
				rep[i] = p + 1
			}
			honest[c] = rep
		}
		base := AggregateRanks(honest)
		// Attacker replaces client 0's report with an arbitrary permutation.
		evil := append([][]int(nil), honest...)
		perm := r.Perm(units)
		rep := make([]int, units)
		for i, p := range perm {
			rep[i] = p + 1
		}
		evil[0] = rep
		after := AggregateRanks(evil)
		bound := float64(units-1)/float64(clients) + 1e-9
		for i := range base {
			if math.Abs(after[i]-base[i]) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVotesFromActivations(t *testing.T) {
	acts := []float64{0.5, 2.0, 0.1, 1.0}
	votes := VotesFromActivations(acts, 0.5)
	// Two least active units (2 and 0) get prune votes.
	want := []bool{true, false, true, false}
	for i, w := range want {
		if votes[i] != w {
			t.Fatalf("votes = %v, want %v", votes, want)
		}
	}
	count := 0
	for _, v := range VotesFromActivations(acts, 0.25) {
		if v {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("rate 0.25 produced %d votes, want 1", count)
	}
}

// Property: vote reports always contain exactly ⌊p·n⌋ prune votes.
func TestVoteCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		p := r.Float64()
		acts := make([]float64, n)
		for i := range acts {
			acts[i] = r.NormFloat64()
		}
		votes := VotesFromActivations(acts, p)
		count := 0
		for _, v := range votes {
			if v {
				count++
			}
		}
		return count == int(p*float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a minority of vote-manipulating attackers cannot force a
// neuron's prune share past the honest majority — with a attackers out of
// n clients, shares move by at most a/n.
func TestVoteInfluenceBounded(t *testing.T) {
	honest := [][]bool{
		{true, false, false, false},
		{true, false, false, false},
		{true, false, false, false},
		{false, true, false, false},
	}
	base := AggregateVotes(honest)
	evil := append([][]bool(nil), honest...)
	evil[0] = []bool{false, false, false, true} // attacker flips its vote
	after := AggregateVotes(evil)
	for i := range base {
		if math.Abs(after[i]-base[i]) > 0.25+1e-12 {
			t.Fatalf("one attacker of four moved share by %g", math.Abs(after[i]-base[i]))
		}
	}
}

func TestPruneOrderFromRanksMostDormantFirst(t *testing.T) {
	mean := []float64{1.5, 3.5, 2.0} // unit1 most dormant (largest mean rank)
	order := PruneOrderFromRanks(mean)
	if order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("order = %v, want [1 2 0]", order)
	}
}

func TestAggregateRejectsBadReports(t *testing.T) {
	for _, f := range []func(){
		func() { AggregateRanks(nil) },
		func() { AggregateRanks([][]int{{1, 2}, {1}}) },
		func() { AggregateRanks([][]int{{0, 1}}) },
		func() { AggregateVotes(nil) },
		func() { AggregateVotes([][]bool{{true}, {true, false}}) },
		func() { VotesFromActivations([]float64{1}, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad report accepted")
				}
			}()
			f()
		}()
	}
}

// planted model: a dense layer whose unit activations are directly
// controlled, plus an evaluator counting surviving "important" units.
func plantedConv(t *testing.T, rng *rand.Rand) (*nn.Sequential, int) {
	t.Helper()
	d := tensor.ConvDims{C: 1, H: 4, W: 4, K: 3, Stride: 1, Pad: 1}
	conv := nn.NewConv2D("conv", d, 6, rng)
	m := nn.NewSequential(conv, nn.NewReLU("r"), nn.NewFlatten("f"),
		nn.NewDense("fc", 6*16, 3, rng))
	return m, 0
}

func TestPruneToThresholdStopsAndReverts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m, layerIdx := plantedConv(t, rng)
	// Evaluator: accuracy is 1.0 until more than 3 units are pruned, then
	// collapses. The 4th prune must be attempted and reverted.
	eval := Evaluator(func(mm *nn.Sequential) float64 {
		pruned := mm.Layer(layerIdx).(nn.Prunable).PrunedCount()
		if pruned > 3 {
			return 0.5
		}
		return 1.0
	})
	order := []int{5, 4, 3, 2, 1, 0}
	res := PruneToThreshold(m, layerIdx, order, eval, 0.9)
	if len(res.Pruned) != 3 {
		t.Fatalf("pruned %d units, want 3", len(res.Pruned))
	}
	if got := m.Layer(layerIdx).(nn.Prunable).PrunedCount(); got != 3 {
		t.Fatalf("model has %d pruned units after revert, want 3", got)
	}
	if len(res.Steps) != 4 {
		t.Fatalf("%d steps traced, want 4 (3 kept + 1 rejected)", len(res.Steps))
	}
	if res.FinalAccuracy != 1.0 {
		t.Fatalf("final accuracy %g, want 1.0", res.FinalAccuracy)
	}
	// The reverted unit's weights must be restored (non-zero).
	conv := m.Layer(layerIdx).(*nn.Conv2D)
	fanIn := conv.W.Value.Dim(1)
	unit := order[3]
	nonZero := false
	for j := 0; j < fanIn; j++ {
		if conv.W.Value.Data[unit*fanIn+j] != 0 {
			nonZero = true
		}
	}
	if !nonZero {
		t.Fatal("reverted unit's weights stayed zero")
	}
}

func TestPruneToThresholdNeverKillsAllUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m, layerIdx := plantedConv(t, rng)
	eval := Evaluator(func(*nn.Sequential) float64 { return 1 }) // never stops
	res := PruneToThreshold(m, layerIdx, []int{0, 1, 2, 3, 4, 5}, eval, 0)
	if len(res.Pruned) != 5 {
		t.Fatalf("pruned %d, want 5 (one unit must survive)", len(res.Pruned))
	}
}

func TestPruneSweepCurveLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	m, layerIdx := plantedConv(t, rng)
	calls := 0
	eval := Evaluator(func(*nn.Sequential) float64 { calls++; return 1 })
	curves := PruneSweep(m, layerIdx, []int{0, 1, 2}, eval, eval)
	if len(curves) != 2 {
		t.Fatalf("%d curves, want 2", len(curves))
	}
	for _, c := range curves {
		if len(c) != 4 { // initial point + 3 prunes
			t.Fatalf("curve length %d, want 4", len(c))
		}
	}
	if m.Layer(layerIdx).(nn.Prunable).PrunedCount() != 3 {
		t.Fatal("sweep should leave all listed units pruned")
	}
}
