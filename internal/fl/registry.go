package fl

import (
	"fmt"
	"math/rand"

	"github.com/fedcleanse/fedcleanse/internal/obs"
)

// ClientFactory materializes the participant for a registered client ID.
// The registry calls it once per sampled cohort slot per round; the
// returned participant lives only for that round, so a million registered
// clients cost a million integers, not a million resident models.
type ClientFactory func(id int) Participant

// Registry tracks a federation's registered population without holding a
// Participant per client: the population is one ID range [lo, hi), so a
// registered-but-idle client costs nothing, and only the clients sampled
// into a round's cohort are materialized, through the factory. This is
// what separates population size (how many clients exist) from cohort
// size (how many train per round), the scaling split the ROADMAP's
// 100k–1M-client target requires.
//
// Sampling is deterministic: SampleIDs draws k registered IDs without
// replacement by a partial Fisher–Yates shuffle over the range, consuming
// only the caller's seeded *rand.Rand — O(k) time and memory, never
// O(population). Two registries over equal ranges and equal RNG states
// sample identical cohorts.
type Registry struct {
	lo, hi     int
	registered bool
	factory    ClientFactory
}

// NewRegistry builds an empty registry over the given factory.
func NewRegistry(factory ClientFactory) *Registry {
	if factory == nil {
		panic("fl: NewRegistry with nil factory")
	}
	return &Registry{factory: factory}
}

// RegisterRange registers the half-open ID range [lo, hi) as the
// population (empty when hi <= lo) and updates the fl_registered_clients
// gauge. A registry holds one range: a second call panics.
func (r *Registry) RegisterRange(lo, hi int) {
	if r.registered {
		panic("fl: Registry.RegisterRange called twice")
	}
	r.lo, r.hi, r.registered = lo, max(lo, hi), true
	obs.M.FLRegisteredClients.Set(int64(r.Len()))
}

// Len reports the registered population size.
func (r *Registry) Len() int { return r.hi - r.lo }

// has reports whether id is registered.
func (r *Registry) has(id int) bool { return r.lo <= id && id < r.hi }

// SampleIDs draws k distinct registered IDs using rng. k <= 0 or
// k >= Len() returns the whole population in ascending order.
func (r *Registry) SampleIDs(k int, rng *rand.Rand) []int {
	n := r.Len()
	if n == 0 {
		return nil
	}
	if k <= 0 || k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = r.lo + i
		}
		return out
	}
	out := sampleIndices(n, k, rng)
	for i := range out {
		out[i] += r.lo
	}
	return out
}

// Cohort samples k clients and materializes them through the factory, in
// sampled order. The returned participants are the round's working set;
// callers drop them when the round ends, returning the registry to its
// IDs-only footprint.
func (r *Registry) Cohort(k int, rng *rand.Rand) []Participant {
	return r.Materialize(r.SampleIDs(k, rng))
}

// Materialize resolves explicit client IDs through the factory, in the
// given order — the resume path's way to rebuild a checkpointed cohort
// without consuming any sampling randomness.
func (r *Registry) Materialize(ids []int) []Participant {
	parts := make([]Participant, len(ids))
	for i, id := range ids {
		p := r.factory(id)
		if p == nil {
			panic(fmt.Sprintf("fl: factory returned nil participant for client %d", id))
		}
		parts[i] = p
	}
	return parts
}

// sampleIndices draws k distinct indices from [0,n) by a partial
// Fisher–Yates shuffle whose displaced entries live in a map, so cost is
// O(k) regardless of n. The draw sequence is a pure function of the RNG
// state, which keeps cohort selection reproducible across runs and
// processes.
func sampleIndices(n, k int, rng *rand.Rand) []int {
	swapped := make(map[int]int, 2*k)
	at := func(i int) int {
		if v, ok := swapped[i]; ok {
			return v
		}
		return i
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		out[i] = at(j)
		swapped[j] = at(i)
	}
	return out
}
