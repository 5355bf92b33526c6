package fl

import (
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/obs"
)

// TestRegistrySampleDeterministic: equal registration sequences and equal
// RNG seeds sample identical cohorts; a different seed diverges (with a
// population this size, collision would be astronomically unlikely).
func TestRegistrySampleDeterministic(t *testing.T) {
	mk := func() *Registry {
		r := NewRegistry(func(id int) Participant { return &fakeParticipant{id: id} })
		r.RegisterRange(100, 1100)
		return r
	}
	a := mk().SampleIDs(32, rand.New(rand.NewSource(9)))
	b := mk().SampleIDs(32, rand.New(rand.NewSource(9)))
	if !sameInts(a, b) {
		t.Fatalf("same seed sampled different cohorts:\n%v\n%v", a, b)
	}
	c := mk().SampleIDs(32, rand.New(rand.NewSource(10)))
	if sameInts(a, c) {
		t.Fatalf("different seeds sampled the same cohort: %v", a)
	}
}

// TestRegistrySampleDistinctAndRegistered: a sample holds k distinct IDs,
// all of them registered.
func TestRegistrySampleDistinctAndRegistered(t *testing.T) {
	r := NewRegistry(func(id int) Participant { return &fakeParticipant{id: id} })
	r.RegisterRange(0, 500)
	ids := r.SampleIDs(64, rand.New(rand.NewSource(11)))
	if len(ids) != 64 {
		t.Fatalf("sampled %d IDs, want 64", len(ids))
	}
	seen := make(map[int]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate ID %d in cohort", id)
		}
		seen[id] = true
		if id < 0 || id >= 500 {
			t.Fatalf("unregistered ID %d sampled", id)
		}
	}
}

// TestRegistrySampleWholePopulation: k <= 0 and k >= n both return the
// full range in ascending order; a partial sample is the range's lower
// bound plus the sampled indices, so an offset range draws the same
// cohorts as [0, n) shifted.
func TestRegistrySampleWholePopulation(t *testing.T) {
	r := NewRegistry(func(id int) Participant { return &fakeParticipant{id: id} })
	r.RegisterRange(7, 10)
	for _, k := range []int{0, 3, 10} {
		got := r.SampleIDs(k, rand.New(rand.NewSource(12)))
		if !sameInts(got, []int{7, 8, 9}) {
			t.Fatalf("k=%d: got %v, want the range [7 8 9]", k, got)
		}
	}
	got := r.SampleIDs(2, rand.New(rand.NewSource(12)))
	want := sampleIndices(3, 2, rand.New(rand.NewSource(12)))
	for i := range want {
		want[i] += 7
	}
	if !sameInts(got, want) {
		t.Fatalf("sample of 2 from [7, 10) = %v, want %v", got, want)
	}
}

// TestRegistryDuplicateAndGauge: the population gauge tracks Len, an empty
// range registers nobody, and a registry takes one range — a second
// RegisterRange panics instead of merging or dropping IDs.
func TestRegistryDuplicateAndGauge(t *testing.T) {
	r := NewRegistry(func(id int) Participant { return &fakeParticipant{id: id} })
	r.RegisterRange(1, 5)
	if r.Len() != 4 {
		t.Fatalf("Len=%d for the range [1, 5), want 4", r.Len())
	}
	if got := obs.M.FLRegisteredClients.Value(); got != 4 {
		t.Fatalf("fl_registered_clients=%d, want 4", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a second RegisterRange did not panic")
			}
		}()
		r.RegisterRange(5, 6)
	}()
	if r.Len() != 4 || !r.has(1) || !r.has(4) || r.has(0) || r.has(5) {
		t.Fatalf("registry changed by the refused second range: Len=%d", r.Len())
	}
	empty := NewRegistry(func(id int) Participant { return &fakeParticipant{id: id} })
	empty.RegisterRange(3, 1)
	if empty.Len() != 0 || empty.SampleIDs(0, rand.New(rand.NewSource(1))) != nil {
		t.Fatalf("range [3, 1) registered %d clients, want 0", empty.Len())
	}
}

// TestRegistryCohortMaterializesOnlySampled: the factory runs exactly k
// times per cohort — the O(cohort) materialization the memory model rests
// on — and the cohort carries the sampled IDs in order.
func TestRegistryCohortMaterializesOnlySampled(t *testing.T) {
	calls := 0
	r := NewRegistry(func(id int) Participant {
		calls++
		return &fakeParticipant{id: id}
	})
	r.RegisterRange(0, 10000)
	rng := rand.New(rand.NewSource(13))
	cohort := r.Cohort(25, rng)
	if calls != 25 {
		t.Fatalf("factory ran %d times for a 25-client cohort", calls)
	}
	wantIDs := r.SampleIDs(25, rand.New(rand.NewSource(13)))
	for i, p := range cohort {
		if p.ID() != wantIDs[i] {
			t.Fatalf("cohort[%d] = client %d, want %d", i, p.ID(), wantIDs[i])
		}
	}
}

// TestRegistryServerRoundsReproducible: two registry-backed servers built
// from the same seeds run identical rounds — same sampled cohorts, same
// parameters — and never materialize more than the cohort.
func TestRegistryServerRoundsReproducible(t *testing.T) {
	_, _, template, cfg := tinySetup(t, 80)
	cfg.SelectPerRound = 4
	cfg.Streaming = true
	n := template.NumParams()
	run := func() ([]float64, []RoundResult, int) {
		calls := 0
		reg := NewRegistry(func(id int) Participant {
			calls++
			return &fakeParticipant{id: id, delta: scaled(n, float64(id%7)*1e-3)}
		})
		reg.RegisterRange(0, 1000)
		srv := NewRegistryServer(template, reg, cfg, 81)
		var rounds []RoundResult
		for r := 0; r < cfg.Rounds; r++ {
			rounds = append(rounds, srv.RoundDetail(r))
		}
		return srv.Model.ParamsVector(), rounds, calls
	}
	p1, r1, c1 := run()
	p2, r2, c2 := run()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("param %d = %v vs %v across identical runs", i, p1[i], p2[i])
		}
	}
	for r := range r1 {
		if !sameInts(r1[r].Selected, r2[r].Selected) || !sameInts(r1[r].Completed, r2[r].Completed) {
			t.Fatalf("round %d cohorts diverge: %+v vs %+v", r, r1[r], r2[r])
		}
		if len(r1[r].Selected) != 4 {
			t.Fatalf("round %d selected %d clients, want 4", r, len(r1[r].Selected))
		}
	}
	if c1 != cfg.Rounds*4 || c2 != c1 {
		t.Fatalf("factory calls %d/%d, want %d (cohort-only materialization)", c1, c2, cfg.Rounds*4)
	}
}

// TestRegistryFineTuneSamplesCohorts: a registry-backed server fine-tunes
// by sampling per-round cohorts instead of requiring a resident
// population.
func TestRegistryFineTuneSamplesCohorts(t *testing.T) {
	_, _, template, cfg := tinySetup(t, 82)
	cfg.SelectPerRound = 3
	n := template.NumParams()
	calls := 0
	reg := NewRegistry(func(id int) Participant {
		calls++
		return &fakeParticipant{id: id, delta: scaled(n, 1e-3)}
	})
	reg.RegisterRange(0, 100)
	srv := NewRegistryServer(template, reg, cfg, 83)
	m := template.Clone()
	before := m.ParamsVector()
	srv.FineTune(m, 2)
	if calls != 6 {
		t.Fatalf("factory ran %d times for 2 fine-tune rounds of 3, want 6", calls)
	}
	after := m.ParamsVector()
	moved := false
	for i := range after {
		if after[i] != before[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("fine-tuning over a registry cohort left the model untouched")
	}
}
