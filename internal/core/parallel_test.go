package core

import (
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// actClient derives reports from a fixed activation vector, mimicking an
// honest client with deterministic local data. It reads the model it is
// handed, shared by every concurrent report call, but keys its answer on
// its own activations.
type actClient struct {
	acts []float64
}

func (c *actClient) RankReport(m *nn.Sequential, layerIdx int) []int {
	_ = m.NumParams() // read the shared model, as a real client does
	return RanksFromActivations(c.acts)
}

func (c *actClient) VoteReport(m *nn.Sequential, layerIdx int, p float64) []bool {
	_ = m.NumParams()
	return VotesFromActivations(c.acts, p)
}

// TestGlobalPruneOrderParallelBitIdentical asserts that report collection
// produces the same global pruning sequence for worker counts 1, 2, 3 and 8,
// for both RAP and MVP.
func TestGlobalPruneOrderParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rng)
	layerIdx := m.LastConvIndex()
	units := m.Layer(layerIdx).(nn.Prunable).Units()

	clients := make([]ReportClient, 12)
	for i := range clients {
		acts := make([]float64, units)
		for j := range acts {
			acts[j] = rng.NormFloat64()
		}
		clients[i] = &actClient{acts: acts}
	}

	for _, method := range []PruneMethod{RAP, MVP} {
		cfg := PipelineConfig{Method: method, VoteRate: 0.5}
		run := func(w int) []int {
			prev := parallel.SetWorkers(w)
			defer parallel.SetWorkers(prev)
			return GlobalPruneOrder(m, clients, layerIdx, cfg)
		}
		ref := run(1)
		for _, w := range []int{2, 3, 8} {
			got := run(w)
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("%v workers=%d: prune order %v, want %v", method, w, got, ref)
				}
			}
		}
	}
}
