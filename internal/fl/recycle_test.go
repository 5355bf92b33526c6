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
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// The ownership suite (DESIGN.md §6). Delta vectors are recycled, so a
// release that comes too early hands a vector the fold is still to add to
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

// TestStreamingRecyclesFoldedDeltas: streaming rounds over recycled deltas
// equal batch rounds bit for bit for every window and worker count, hold no
// more than the window in flight and leave no parameter non-finite.
// Releasing a delta before the fold has added it fails it (and the
// kill-restart suites).
func TestStreamingRecyclesFoldedDeltas(t *testing.T) {
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

// echoClient's delta is a function of every element of the global it is
// handed, written over a free-list vector: a global released while a client
// still reads it, or an aggregate released before it is applied, shows up
// in the model (as NaN under -race, where Put poisons).
type echoClient struct{ id int }

func (c echoClient) ID() int { return c.id }
func (c echoClient) LocalUpdate(global []float64, round int) []float64 {
	d := wire.GetFloat64s(len(global))
	echoDelta(d, global, c.id, round)
	return d
}

func echoDelta(d, global []float64, id, round int) {
	k := 1 / float64(id+round+2)
	for i, g := range global {
		d[i] = k*g + 1e-3*float64(i%7)
	}
}

// firstInputRule returns one of its inputs as the aggregate, which the
// round must then release once, not twice.
type firstInputRule struct{}

func (firstInputRule) Aggregate(deltas [][]float64) []float64 { return deltas[0] }

// TestRoundRecyclesGlobalAndAggregate: the round's own two vectors — the
// flattened global and, on the batch path, the rule's result — travel
// through the free list like the deltas (DESIGN.md §6), and the model is,
// bit for bit, what the same sums over freshly allocated vectors give:
// batch and streaming, and under a rule that hands back an input.
func TestRoundRecyclesGlobalAndAggregate(t *testing.T) {
	const clients, rounds = 12, 6
	_, _, template, _ := tinySetup(t, 99)
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)

	reference := func(first bool) []float64 {
		w := template.ParamsVector()
		for r := 0; r < rounds; r++ {
			sum, d := make([]float64, len(w)), make([]float64, len(w))
			for id := 0; id < clients; id++ {
				echoDelta(d, w, id, r)
				if first {
					break // the rule's aggregate is client 0's delta
				}
				for i, v := range d {
					sum[i] += v
				}
			}
			for i := range w {
				if first {
					w[i] += d[i]
				} else {
					w[i] += sum[i] * (1.0 / clients)
				}
			}
		}
		return w
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		first bool
	}{
		{name: "batch"},
		{name: "streaming", cfg: Config{Streaming: true, Shards: 3, StreamWindow: 4}},
		{name: "batch, rule returns an input", first: true},
	} {
		parts := make([]Participant, clients)
		for i := range parts {
			parts[i] = echoClient{id: i}
		}
		s := NewServer(template, parts, tc.cfg, 100)
		if tc.first {
			s.Agg = firstInputRule{}
		}
		for r := 0; r < rounds; r++ {
			if res := s.RoundDetail(r); !res.Applied || len(res.Completed) != clients {
				t.Fatalf("%s: round %d: %+v", tc.name, r, res)
			}
		}
		want := reference(tc.first)
		for i, got := range s.Model.ParamsVector() {
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("%s: param %d = %v, want %v", tc.name, i, got, want[i])
			}
		}
	}
}

// TestLocalUpdateWritesModelMinusGlobal: Client and Attacker write their
// delta straight from the tensors of a borrowed working model; it must be,
// bit for bit, what training a private clone, flattening it and subtracting
// gives — with the attacker's γ applied after the subtraction, off the
// positions the clone's own Param.Stat marks as statistics.
func TestLocalUpdateWritesModelMinusGlobal(t *testing.T) {
	train, _, template, cfg := tinySetup(t, 94)
	shard := dataset.PartitionKLabelForced(train, 1, 3, 60, rand.New(rand.NewSource(95)), 9, 1)[0]
	global := template.ParamsVector()
	const round = 5
	// The batch order a participant draws: participantRNG over (seed, id,
	// round).
	private := func(data *dataset.Dataset, cfg Config, seed int64, id int) *nn.Sequential {
		m := template.Clone()
		m.SetParamsVector(global)
		NewTrainer(cfg).Train(m, data, participantRNG(uint64(seed), uint64(id), round))
		return m
	}

	got := NewClient(0, shard, template, cfg, 96).LocalUpdate(global, round)
	after := private(shard, cfg, 96, 0).ParamsVector()
	for i := range got {
		if want := after[i] - global[i]; math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("client delta[%d] = %v, want %v", i, got[i], want)
		}
	}

	poison := dataset.PoisonConfig{Trigger: dataset.PixelPattern(3, train.Shape), VictimLabel: 9, TargetLabel: 1}
	atk := NewAttacker(1, shard, template, cfg, poison, 4, 97)
	got = atk.LocalUpdate(global, round)
	long := cfg
	long.LocalEpochs *= 3
	m := private(dataset.PoisonTrainSet(shard, poison), long, 97, 1)
	after = m.ParamsVector()
	i := 0
	for _, p := range m.Params() {
		for range p.Value.Data {
			want := after[i] - global[i]
			if !p.Stat {
				want *= 4
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("attacker delta[%d] (%s) = %v, want %v", i, p.Name, got[i], want)
			}
			i++
		}
	}
}

// TestParticipantRNGReseedMatchesFreshSource: a recycled, re-seeded
// generator yields the stream a fresh source over the FNV-1a hash of the
// call's key opens, so pooling generators changes none of the deltas, drops
// and cohorts drawn from participantRNG — also when calls overlap and hand
// generators back out of order.
func TestParticipantRNGReseedMatchesFreshSource(t *testing.T) {
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
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		wg.Add(1)
		go func(round uint64) {
			defer wg.Done()
			for call := uint64(0); call < 4; call++ {
				key := []uint64{98, 7 + call, round}
				if call%2 == 1 {
					key = append([]uint64{selectDomain}, key...)
				}
				want := fresh(key...)
				rng := participantRNG(key...)
				for i := 0; i < 1000; i++ {
					if v, w := rng.Float64(), want.Float64(); v != w {
						t.Errorf("key %v: draw %d = %v, want %v", key, i, v, w)
						break
					}
				}
				participantRNGs.Put(rng)
			}
		}(uint64(round))
	}
	wg.Wait()
}
