package fl

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/fedcleanse/fedcleanse/internal/obs"
)

// ClientFactory materializes the participant for a registered client ID.
// The registry calls it once per sampled cohort slot per round; the
// returned participant lives only for that round, so a million registered
// clients cost a million integers, not a million resident models.
type ClientFactory func(id int) Participant

// Registry tracks a federation's registered population without holding a
// Participant per client: a registered-but-idle client is one ID in a
// slice plus one set entry — O(1) memory — and only the clients sampled
// into a round's cohort are materialized, through the factory. This is
// what separates population size (how many clients exist) from cohort
// size (how many train per round), the scaling split the ROADMAP's
// 100k–1M-client target requires.
//
// Sampling is deterministic: SampleIDs draws k registered IDs without
// replacement by a partial Fisher–Yates shuffle over the registration
// order, consuming only the caller's seeded *rand.Rand — O(k) time and
// memory, never O(population). Two registries with equal registration
// sequences and equal RNG states sample identical cohorts.
type Registry struct {
	mu      sync.RWMutex
	ids     []int
	seen    map[int]struct{}
	factory ClientFactory
}

// NewRegistry builds an empty registry over the given factory.
func NewRegistry(factory ClientFactory) *Registry {
	if factory == nil {
		panic("fl: NewRegistry with nil factory")
	}
	return &Registry{factory: factory, seen: make(map[int]struct{})}
}

// Register adds client IDs to the population, ignoring duplicates, and
// updates the fl_registered_clients gauge.
func (r *Registry) Register(ids ...int) {
	r.mu.Lock()
	for _, id := range ids {
		if _, dup := r.seen[id]; dup {
			continue
		}
		r.seen[id] = struct{}{}
		r.ids = append(r.ids, id)
	}
	n := len(r.ids)
	r.mu.Unlock()
	obs.M.FLRegisteredClients.Set(int64(n))
}

// RegisterRange registers the half-open ID range [lo, hi).
func (r *Registry) RegisterRange(lo, hi int) {
	if hi <= lo {
		return
	}
	ids := make([]int, 0, hi-lo)
	for id := lo; id < hi; id++ {
		ids = append(ids, id)
	}
	r.Register(ids...)
}

// Len reports the registered population size.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ids)
}

// has reports whether id is registered.
func (r *Registry) has(id int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.seen[id]
	return ok
}

// SampleIDs draws k distinct registered IDs using rng. k <= 0 or
// k >= Len() returns the whole population in registration order.
func (r *Registry) SampleIDs(k int, rng *rand.Rand) []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.ids)
	if n == 0 {
		return nil
	}
	if k <= 0 || k >= n {
		return append([]int(nil), r.ids...)
	}
	out := make([]int, k)
	for i, idx := range sampleIndices(n, k, rng) {
		out[i] = r.ids[idx]
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
