package wire

import (
	"math"
	"sync"
)

// The float64 free list: where parameter-sized vectors live between two
// uses — the update delta a participant returns, the delta a stub decodes
// out of a response, the global a handler decodes out of a request. A round
// moves cohort × 2 such vectors and each is garbage microseconds after it
// was filled, so they are recycled instead of allocated (DESIGN.md §6).
//
// Unlike a Buffer, a vector crosses calls and goroutines, so the ownership
// rule is about who holds it, not which call: a vector from GetFloat64s
// belongs to whoever it is handed to, exactly one owner at a time, and the
// owner may PutFloat64s it once nothing else can read it. Not putting a
// vector back is always safe — the GC takes it; putting back one that
// anything can still reach is the bug the race-build poison below exists to
// expose.
//
// A plain stack under a mutex, like nn.Replicas: it grows to the largest
// number of vectors ever free at once — one cohort's worth, two for a
// process that is both ends of the wire — and stays there, so what a round
// allocates does not depend on where the collector stood when it began
// (a sync.Pool, trimmed by the GC, lost a cohort's vectors between one
// round's Put and the next round's Get in some runs and not in others,
// DESIGN.md §6 "residual modes"). Nothing has a size to configure: a
// vector too short for the caller is dropped, so the list follows the
// model in use. Put allocates only when the stack itself grows, i.e. not in
// steady state — a Put often sits where a handler has already answered,
// and an allocation there can stall it behind the collector.
var float64sFree struct {
	sync.Mutex
	vs [][]float64
}

// GetFloat64s returns a vector of length n whose contents are unspecified:
// the caller must write all n elements before anything reads them. A
// recycled vector too short for n is dropped, never stretched.
func GetFloat64s(n int) []float64 {
	float64sFree.Lock()
	var v []float64
	if last := len(float64sFree.vs) - 1; last >= 0 {
		v = float64sFree.vs[last]
		float64sFree.vs[last] = nil
		float64sFree.vs = float64sFree.vs[:last]
	}
	float64sFree.Unlock()
	if v != nil && cap(v) >= n {
		return v[:n]
	}
	return make([]float64, n)
}

// PutFloat64s recycles v. The caller must own v (see above) and must not
// touch it afterwards. In race-detector builds the vector is first filled
// with NaN, so a release that came too early is a reported race and a NaN
// in whatever still read it — in every suite that compares model hashes —
// instead of a silently plausible number.
func PutFloat64s(v []float64) {
	if cap(v) == 0 {
		return
	}
	v = v[:cap(v)]
	if poisonOnPut {
		for i := range v {
			v[i] = math.NaN()
		}
	}
	float64sFree.Lock()
	float64sFree.vs = append(float64sFree.vs, v)
	float64sFree.Unlock()
}
