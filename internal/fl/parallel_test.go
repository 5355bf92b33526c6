package fl

import (
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// buildCohort constructs a fresh identical federation (server + clients,
// attackers where attackerAt says, per-client seeded RNGs) for determinism
// tests. Every call rebuilds all state from the same seeds, so two
// federations trained under different worker counts are comparable bit
// for bit.
func buildCohort(t *testing.T, clients int, attackerAt func(i int) bool) *Server {
	t.Helper()
	train, _, template, cfg := tinySetup(t, 21)
	return buildCohortOver(train, template, cfg, clients, attackerAt)
}

// buildCohortOver is buildCohort over a template the caller keeps, so two
// cohorts can share its free list of working models.
func buildCohortOver(train *dataset.Dataset, template *nn.Sequential, cfg Config, clients int, attackerAt func(i int) bool) *Server {
	shards := dataset.PartitionKLabel(train, clients, 3, 40, rand.New(rand.NewSource(22)))
	poison := dataset.PoisonConfig{
		Trigger:     dataset.PixelPattern(3, dataset.Shape{C: 1, H: 16, W: 16}),
		VictimLabel: 9,
		TargetLabel: 2,
		Copies:      2,
	}
	parts := make([]Participant, clients)
	for i := range parts {
		if attackerAt(i) {
			parts[i] = NewAttacker(i, shards[i], template, cfg, poison, 3, 100+int64(i))
		} else {
			parts[i] = NewClient(i, shards[i], template, cfg, 200+int64(i))
		}
	}
	return NewServer(template, parts, cfg, 300)
}

// buildFederation is the small uniform-ish cohort: 6 clients, client 0 an
// attacker.
func buildFederation(t *testing.T) *Server {
	t.Helper()
	return buildCohort(t, 6, func(i int) bool { return i == 0 })
}

// TestRoundParallelBitIdentical is the tentpole determinism guarantee for
// the simulator: a federated round (and a full short training run) yields
// a bit-identical global model for worker counts 1, 2 and 8.
func TestRoundParallelBitIdentical(t *testing.T) {
	run := func(w int) []float64 {
		prev := parallel.SetWorkers(w)
		defer parallel.SetWorkers(prev)
		s := buildFederation(t)
		s.Train(nil)
		return s.Model.ParamsVector()
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: params length %d, want %d", w, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: param %d = %v, want %v (not bit-identical)", w, i, got[i], ref[i])
			}
		}
	}
}

// TestRoundParallelWithDropsBitIdentical checks that failure injection —
// whose randomness stream is shared across clients — stays deterministic
// when local training fans out.
func TestRoundParallelWithDropsBitIdentical(t *testing.T) {
	run := func(w int) ([]float64, [][]int) {
		prev := parallel.SetWorkers(w)
		defer parallel.SetWorkers(prev)
		s := buildFederation(t)
		s.Drop = RandomDrop{P: 0.3, Seed: 77}
		var ids [][]int
		for r := 0; r < s.Config().Rounds; r++ {
			ids = append(ids, s.RoundDetail(r).Completed)
		}
		return s.Model.ParamsVector(), ids
	}
	refParams, refIDs := run(1)
	for _, w := range []int{2, 8} {
		params, ids := run(w)
		for r := range refIDs {
			if len(ids[r]) != len(refIDs[r]) {
				t.Fatalf("workers=%d: round %d delivered %v, want %v", w, r, ids[r], refIDs[r])
			}
			for j := range ids[r] {
				if ids[r][j] != refIDs[r][j] {
					t.Fatalf("workers=%d: round %d delivered %v, want %v", w, r, ids[r], refIDs[r])
				}
			}
		}
		for i := range params {
			if params[i] != refParams[i] {
				t.Fatalf("workers=%d: param %d differs after training with drops", w, i)
			}
		}
	}
}

// TestFineTuneParallelBitIdentical covers the defense's federated
// fine-tuning loop, which also fans out per-client training.
func TestFineTuneParallelBitIdentical(t *testing.T) {
	run := func(w int) []float64 {
		prev := parallel.SetWorkers(w)
		defer parallel.SetWorkers(prev)
		s := buildFederation(t)
		m := s.Model.Clone()
		s.FineTune(m, 2)
		return m.ParamsVector()
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: fine-tuned param %d differs from serial", w, i)
			}
		}
	}
}
