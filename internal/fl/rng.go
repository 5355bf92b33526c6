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
// (seed, id, round) for an update, (domain, seed, round) for a cohort
// (DESIGN.md §7) — for the caller to hold alone until it hands it back to
// participantRNGs.
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
