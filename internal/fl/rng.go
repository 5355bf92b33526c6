package fl

import (
	"math/rand"
	"sync"
)

// participantRNGs recycles generators between calls: a math/rand source is
// 4.9 KiB of state, and Seed(s) restarts it on exactly the stream
// NewSource(s) opens, so a recycled generator yields the same values as a
// fresh one.
var participantRNGs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// participantRNG derives an RNG from the hashed values — a call's own key,
// (seed, id, round) for an update, (domain, seed, round) for a cohort
// (DESIGN.md §5) — for the caller to hold alone until it hands it back to
// participantRNGs.
func participantRNG(vals ...uint64) *rand.Rand {
	rng := participantRNGs.Get().(*rand.Rand)
	rng.Seed(int64(streamKey(vals...)))
	return rng
}

// streamKey hashes the values into one key: 64-bit FNV-1a over each
// value's eight little-endian bytes, in order.
func streamKey(vals ...uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= 1099511628211
		}
	}
	return h
}
