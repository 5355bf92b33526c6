package fl

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// The sharing suite (DESIGN.md §8). Clients and attackers train on working
// models borrowed from their template's free list, so what used to be
// private by construction — masks, per-layer L2, the backend, optimizer
// state — is now private by discipline. These tests put two federations and
// a mask-adding attacker on it.

// vggFederation is a small MiniVGG federation (BatchNorm, so running
// statistics ride in every update): attacker 0 and clients 1..n-1, all
// built from one fresh template that tweak may adjust first.
type vggFederation struct {
	template *nn.Sequential
	attacker *Attacker
	server   *Server
}

func newVGGFederation(train *dataset.Dataset, clients int, cfg Config, seed int64, tweak func(*nn.Sequential)) *vggFederation {
	template := nn.NewMiniVGG(nn.Input{C: 3, H: 16, W: 16}, 10, rand.New(rand.NewSource(seed)))
	if tweak != nil {
		tweak(template)
	}
	shards := dataset.PartitionKLabelForced(train, clients, 3, 20, rand.New(rand.NewSource(seed+1)), 9, 1)
	poison := dataset.PoisonConfig{Trigger: dataset.PixelPattern(3, train.Shape), VictimLabel: 9, TargetLabel: 2}
	f := &vggFederation{template: template}
	f.attacker = NewAttacker(0, shards[0], template, cfg, poison, 3, seed+100)
	parts := []Participant{f.attacker}
	for i := 1; i < clients; i++ {
		parts = append(parts, NewClient(i, shards[i], template, cfg, seed+200+int64(i)))
	}
	f.server = NewServer(template, parts, cfg, seed+300)
	return f
}

// TestFederationsDoNotBleed: two federations over the same architecture —
// one float64 with an L2 penalty on its last conv layer and a pruning-aware
// attacker, one float32 with momentum — trained round by round in turn,
// under two workers, give at every round the parameters each gives alone
// under one worker. A list shared across templates (keyed by shape, say)
// would hand one federation's L2, backend or masks to the other; a mask
// that outlived the attacker's update would starve honest clients of the
// avoided units.
func TestFederationsDoNotBleed(t *testing.T) {
	train, _ := dataset.GenSynthCIFAR(dataset.GenConfig{TrainPerClass: 12, TestPerClass: 2, Seed: 51})
	const rounds = 3
	build := func() (a, b *vggFederation) {
		cfgA := Config{LocalEpochs: 1, BatchSize: 10, LR: 0.05, WeightDecay: 1e-4}
		a = newVGGFederation(train, 4, cfgA, 52, func(m *nn.Sequential) {
			m.Layer(m.LastConvIndex()).(*nn.Conv2D).SetL2(0.05)
		})
		a.attacker.AvoidLayer = a.template.LastConvIndex()
		a.attacker.AvoidUnits = []int{1, 4, 4}
		cfgB := Config{LocalEpochs: 1, BatchSize: 10, LR: 0.02, Momentum: 0.9}
		b = newVGGFederation(train, 4, cfgB, 53, func(m *nn.Sequential) { m.SetBackend(nn.Float32) })
		return a, b
	}
	alone := func(pick func(a, b *vggFederation) *vggFederation) [][]float64 {
		prev := parallel.SetWorkers(1)
		defer parallel.SetWorkers(prev)
		f := pick(build())
		var out [][]float64
		for r := 0; r < rounds; r++ {
			f.server.RoundDetail(r)
			out = append(out, f.server.Model.ParamsVector())
		}
		return out
	}
	wantA := alone(func(a, _ *vggFederation) *vggFederation { return a })
	wantB := alone(func(_, b *vggFederation) *vggFederation { return b })

	prev := parallel.SetWorkers(2)
	defer parallel.SetWorkers(prev)
	a, b := build()
	same := func(name string, r int, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("federation %s, round %d: param %d = %v interleaved, %v alone", name, r, i, got[i], want[i])
			}
		}
	}
	for r := 0; r < rounds; r++ {
		a.server.RoundDetail(r)
		b.server.RoundDetail(r)
		same("A", r, a.server.Model.ParamsVector(), wantA[r])
		same("B", r, b.server.Model.ParamsVector(), wantB[r])
	}
	if a.template.Replicas() == b.template.Replicas() {
		t.Fatal("two templates share one list")
	}
	for _, f := range []*vggFederation{a, b} {
		list := f.template.Replicas()
		if n := list.Made(); n < 1 || n > 2 {
			t.Fatalf("two workers made %d working models", n)
		}
		// Everything the attacker trained on is back in the list, unmasked.
		for i, n := 0, list.Made(); i < n; i++ {
			r := list.Get()
			for li := 0; li < r.Model.NumLayers(); li++ {
				if p, ok := r.Model.Layer(li).(nn.Prunable); ok && p.PrunedCount() != 0 {
					t.Fatalf("a returned working model keeps %d masked units in layer %d", p.PrunedCount(), li)
				}
			}
		}
	}
}

// TestWorkingModelsFollowWorkersNotPopulation: a 64-client federation
// under two workers trains on at most two working models over three batch
// rounds and reports on the same ones, and on at most StreamWindow of them
// streaming — and a registry whose factory builds a real client per
// materialization finds them warm.
func TestWorkingModelsFollowWorkersNotPopulation(t *testing.T) {
	population := 64
	if testing.Short() {
		population = 16
	}
	train, _ := dataset.GenSynthCIFAR(dataset.GenConfig{TrainPerClass: 12, TestPerClass: 2, Seed: 54})
	prev := parallel.SetWorkers(2)
	defer parallel.SetWorkers(prev)

	cfg := Config{LocalEpochs: 1, BatchSize: 20, LR: 0.05}
	f := newVGGFederation(train, population, cfg, 55, nil)
	for r := 0; r < 3; r++ {
		if res := f.server.RoundDetail(r); len(res.Completed) != population {
			t.Fatalf("round %d completed %d of %d", r, len(res.Completed), population)
		}
	}
	if n := f.template.Replicas().Made(); n < 1 || n > 2 {
		t.Fatalf("%d clients under 2 workers trained on %d working models, want at most 2", population, n)
	}
	// Reports borrow from the same list: collecting the population's ranks
	// and votes adds no working model to it.
	for _, method := range []core.PruneMethod{core.RAP, core.MVP} {
		cfg := core.PipelineConfig{Method: method, VoteRate: 0.5}
		core.GlobalPruneOrder(f.server.Model, ReportClients(f.server.Participants), f.template.LastConvIndex(), cfg)
		if n := f.template.Replicas().Made(); n > 2 {
			t.Fatalf("%v reports from %d clients under 2 workers took the list to %d working models, want at most 2", method, population, n)
		}
	}

	const window = 3
	cfg.Streaming, cfg.StreamWindow = true, window
	f = newVGGFederation(train, population, cfg, 56, nil)
	for r := 0; r < 2; r++ {
		f.server.RoundDetail(r)
	}
	if n := f.template.Replicas().Made(); n < 1 || n > window {
		t.Fatalf("a streaming window of %d trained on %d working models", window, n)
	}

	template, shard := f.template, f.attacker.clean
	reg := NewRegistry(func(id int) Participant {
		return NewClient(id, shard, template, cfg, int64(id))
	})
	reg.RegisterRange(0, 1000)
	cfg.SelectPerRound = 8
	s := NewRegistryServer(template, reg, cfg, 57)
	for r := 0; r < 2; r++ {
		s.RoundDetail(r)
	}
	if n := template.Replicas().Made(); n > window {
		t.Fatalf("freshly materialized clients took the list to %d working models, window %d", n, window)
	}
}
