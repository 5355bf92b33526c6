package fl

import (
	"hash/fnv"
	"math/rand"
	"sync"
)

// participantRNGs recycles generators between calls: a math/rand source is
// 4.9 KiB of state, and Seed(s) restarts it on exactly the stream
// NewSource(s) opens, so a recycled generator yields the same values as a
// fresh one.
var participantRNGs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// participantRNG derives an RNG from the hashed values — a call's own key,
// (seed, id, round) for an update (DESIGN.md §7) — for the caller to hold
// alone until it hands it back to participantRNGs.
func participantRNG(vals ...uint64) *rand.Rand {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vals {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	rng := participantRNGs.Get().(*rand.Rand)
	rng.Seed(int64(h.Sum64()))
	return rng
}

// Checkpointable server randomness (DESIGN.md §15). A resumed run must
// select the same cohorts the uninterrupted run would have — otherwise the
// bit-identity contract dies at the first post-resume round. math/rand
// offers no way to export a generator's state, so the server draws through
// countingSource: a Source wrapper that counts Int63 calls. The state is
// then two integers — the seed and the draw count — and restoring is
// reseeding plus discarding that many draws (cohort selection consumes a
// handful of draws per round, so replay is microseconds even after
// thousands of rounds).
//
// countingSource deliberately implements only Source, not Source64.
// rand.Rand derives everything the server uses — Intn, Perm, Float64 —
// from Int63 alone; hiding Source64 forces that single entry point, so the
// wrapped generator emits bit-identical sequences to a bare
// rand.New(rand.NewSource(seed)) (pinned by TestCountingSourceBitIdentity)
// while every draw stays countable.
type countingSource struct {
	src   rand.Source
	draws uint64
}

var _ rand.Source = (*countingSource)(nil)

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.draws = 0
}

// RNGState is the serializable state of a server's selection randomness.
type RNGState struct {
	// Seed is the generator's original seed.
	Seed int64
	// Draws is how many Int63 values have been consumed since seeding.
	Draws uint64
}

// seededRand couples a *rand.Rand to its counting source so state can be
// captured and restored.
type seededRand struct {
	rng  *rand.Rand
	src  *countingSource
	seed int64
}

func newSeededRand(seed int64) *seededRand {
	src := &countingSource{src: rand.NewSource(seed)}
	return &seededRand{rng: rand.New(src), src: src, seed: seed}
}

// State captures the generator's position.
func (s *seededRand) State() RNGState {
	return RNGState{Seed: s.seed, Draws: s.src.draws}
}

// Restore rewinds the generator to st by reseeding and replaying st.Draws
// discarded values.
func (s *seededRand) Restore(st RNGState) {
	s.seed = st.Seed
	s.src.Seed(st.Seed)
	for i := uint64(0); i < st.Draws; i++ {
		s.src.Int63()
	}
}
