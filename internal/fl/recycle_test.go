package fl

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// The ownership suite (DESIGN.md §19). Delta vectors are recycled, so a
// release that comes too early hands a vector a shard is still reading to
// the next client to overwrite. Race builds make that loud twice over —
// the detector reports it and wire.PutFloat64s poisons the vector with
// NaN — and these tests put real reuse under it: synthetic participants
// draw every delta from the free list the folds give back to.

// syntheticServer builds a registry server over population synthetic
// clients with the given cohort and streaming knobs.
func syntheticServer(template *nn.Sequential, population, cohort int, cfg Config) *Server {
	reg := NewRegistry(func(id int) Participant { return &SyntheticClient{Id: id, Seed: 92} })
	reg.RegisterRange(0, population)
	cfg.SelectPerRound = cohort
	return NewRegistryServer(template, reg, cfg, 93)
}

// TestStreamingRecyclesAfterLastShard: streaming rounds over recycled
// deltas equal batch rounds bit for bit for every shard count, window and
// worker count, hold no more than the window in flight and leave no
// parameter non-finite. Moving the release from the last shard to the
// return of Fold fails it (and the kill-restart suites).
func TestStreamingRecyclesAfterLastShard(t *testing.T) {
	const population, cohort, rounds = 200, 24, 5
	_, _, template, _ := tinySetup(t, 91)
	run := func(workers int, cfg Config) ([]float64, int) {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		s := syntheticServer(template, population, cohort, cfg)
		peak := 0
		for r := 0; r < rounds; r++ {
			res := s.RoundDetail(r)
			if !res.Applied || len(res.Completed) != cohort {
				t.Fatalf("round %d: %+v", r, res)
			}
			peak = max(peak, res.PeakInFlight)
		}
		return s.Model.ParamsVector(), peak
	}
	want, _ := run(1, Config{})
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{1, 2, 4} {
			for _, window := range []int{1, 2, 8} {
				got, peak := run(workers, Config{Streaming: true, Shards: shards, StreamWindow: window})
				if peak < 1 || peak > window {
					t.Fatalf("workers=%d shards=%d window=%d: PeakInFlight=%d", workers, shards, window, peak)
				}
				for i := range got {
					if math.IsNaN(got[i]) || math.IsInf(got[i], 0) {
						t.Fatalf("workers=%d shards=%d window=%d: param %d = %v (a recycled delta was read)",
							workers, shards, window, i, got[i])
					}
					if got[i] != want[i] {
						t.Fatalf("workers=%d shards=%d window=%d: param %d = %v, want %v",
							workers, shards, window, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestLocalUpdateWritesModelMinusGlobal: Client and Attacker write their
// delta straight from the model's tensors; it must be, bit for bit, what
// flattening the trained model and subtracting used to give — with the
// attacker's γ applied after the subtraction, off the statistics.
func TestLocalUpdateWritesModelMinusGlobal(t *testing.T) {
	train, _, template, cfg := tinySetup(t, 94)
	shard := dataset.PartitionKLabelForced(train, 1, 3, 60, rand.New(rand.NewSource(95)), 9, 1)[0]
	global := template.ParamsVector()

	c := NewClient(0, shard, template, cfg, 96)
	got := c.LocalUpdate(global, 0)
	after := c.Model().ParamsVector()
	for i := range got {
		if want := after[i] - global[i]; math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("client delta[%d] = %v, want %v", i, got[i], want)
		}
	}

	poison := dataset.PoisonConfig{Trigger: dataset.PixelPattern(3, train.Shape), VictimLabel: 9, TargetLabel: 1}
	a := NewAttacker(1, shard, template, cfg, poison, 4, 97)
	got = a.LocalUpdate(global, 0)
	after = a.Model().ParamsVector()
	mask := template.StatMask()
	for i := range got {
		want := after[i] - global[i]
		if !mask[i] {
			want *= 4
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("attacker delta[%d] = %v, want %v", i, got[i], want)
		}
	}
}

// TestSyntheticReseedMatchesFreshSource: a recycled, re-seeded generator
// yields the stream a fresh source did, so synthetic deltas and reports are
// the values they were before generators were pooled — also when calls to
// one client overlap.
func TestSyntheticReseedMatchesFreshSource(t *testing.T) {
	fresh := func(vals ...uint64) *rand.Rand {
		h := fnv.New64a()
		for _, v := range vals {
			var buf [8]byte
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			_, _ = h.Write(buf[:])
		}
		return rand.New(rand.NewSource(int64(h.Sum64())))
	}
	c := &SyntheticClient{Id: 7, Seed: 98}
	global := make([]float64, 1000)
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			rng := fresh(98, 7, uint64(round))
			for i, v := range c.LocalUpdate(global, round) {
				if want := 1e-3 * (2*rng.Float64() - 1); v != want {
					t.Errorf("round %d: delta[%d] = %v, want %v", round, i, v, want)
					return
				}
			}
		}(round)
	}
	wg.Wait()
	rng := fresh(syntheticDomainActs, 98, 7, 3)
	for i, v := range c.ActivationReport(nil, 3) {
		if want := rng.Float64(); v != want {
			t.Fatalf("activation[%d] = %v, want %v", i, v, want)
		}
	}
	if got, want := c.ReportAccuracy(nil), 0.5+fresh(syntheticDomainAcc, 98, 7).Float64()/2; got != want {
		t.Fatalf("accuracy = %v, want %v", got, want)
	}
}
