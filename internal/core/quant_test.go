package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/metrics"
)

// The load-bearing contract of the quantized report path: ranking and
// voting directly on int8 codes is bit-identical to dequantizing first and
// ranking and voting the float64s. This is what lets an int8 participant
// report from its codes without a float64 round trip.
func TestQuantizedConstructorsMatchDequantized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(600)
		acts := make([]float64, n)
		for i := range acts {
			acts[i] = rng.Float64() * 5
		}
		if trial%3 == 0 {
			// Force heavy code collisions: few distinct values.
			for i := range acts {
				acts[i] = float64(rng.Intn(4))
			}
		}
		q := metrics.QuantizeActivations(acts)
		deq := dequantize(q)

		if got, want := RanksFromActivations(q.Q), RanksFromActivations(deq); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d): ranks of the codes diverge from dequantized path\n got %v\nwant %v",
				trial, n, got, want)
		}
		for _, p := range []float64{0, 0.3, 0.5, 1} {
			if got, want := VotesFromActivations(q.Q, p), VotesFromActivations(deq, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (n=%d, p=%g): votes of the codes diverge from dequantized path",
					trial, n, p)
			}
		}
	}
}

// dequantize reconstructs q's activation vector, the float64 path the
// quantized constructors are held to.
func dequantize(q metrics.QuantActs) []float64 {
	out := make([]float64, len(q.Q))
	for i, c := range q.Q {
		out[i] = q.Zero + q.Scale*float64(int(c)+128)
	}
	return out
}

func TestRanksFromInt8CodesTieBreak(t *testing.T) {
	// Equal codes must rank by ascending index, like the float64 path.
	q := []int8{5, -3, 5, 127, -3}
	ranks := RanksFromActivations(q)
	want := []int{2, 4, 3, 1, 5}
	if !reflect.DeepEqual(ranks, want) {
		t.Fatalf("ranks = %v, want %v", ranks, want)
	}
}

func TestVotesFromInt8CodesRate(t *testing.T) {
	q := []int8{10, -20, 30, -40, 0, 25, -128, 127}
	votes := VotesFromActivations(q, 0.5)
	k := 0
	for _, v := range votes {
		if v {
			k++
		}
	}
	if k != 4 {
		t.Fatalf("vote count = %d, want 4", k)
	}
	// The least-active half: codes -20, -40, -128 and 0.
	for _, i := range []int{1, 3, 4, 6} {
		if !votes[i] {
			t.Fatalf("unit %d (code %d) should carry a prune vote: %v", i, q[i], votes)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("rate out of range should panic")
		}
	}()
	VotesFromActivations(q, 1.5)
}

// Aggregating quantized-constructed rank reports must feed AggregateRanks
// valid permutations.
func TestQuantizedRanksArePermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := make([]int8, 512)
	for i := range q {
		q[i] = int8(rng.Intn(256) - 128)
	}
	ranks := RanksFromActivations(q)
	seen := make([]bool, len(ranks)+1)
	for _, r := range ranks {
		if r < 1 || r > len(ranks) || seen[r] {
			t.Fatalf("ranks not a permutation of 1..%d: %v", len(ranks), ranks)
		}
		seen[r] = true
	}
	AggregateRanks([][]int{ranks, ranks}) // must not panic
}
