package wire

import (
	"math"
	"sync"
)

// The float64 free list: where parameter-sized vectors live between two
// uses — the update delta a participant returns, the delta a stub decodes
// out of a response, the global a handler decodes out of a request. A round
// moves cohort × 2 such vectors and each is garbage microseconds after it
// was filled, so they are recycled instead of allocated (DESIGN.md §19).
//
// Unlike a Buffer, a vector crosses calls and goroutines, so the ownership
// rule is about who holds it, not which call: a vector from GetFloat64s
// belongs to whoever it is handed to, exactly one owner at a time, and the
// owner may PutFloat64s it once nothing else can read it. Not putting a
// vector back is always safe — the GC takes it; putting back one that
// anything can still reach is the bug the race-build poison below exists to
// expose.
//
// A sync.Pool underneath: the GC trims it, so nothing has a size to
// configure. The vectors travel as plain []float64 through interfaces that
// predate the list, so the pool holds them boxed; float64sBoxes hands the
// emptied box of one Get to the next Put, which therefore allocates
// nothing — a Put often sits where a handler has already answered, and an
// allocation there can stall it behind the collector.
var (
	float64sPool  sync.Pool                                              // *[]float64, each holding a recycled vector
	float64sBoxes = sync.Pool{New: func() any { return new([]float64) }} // *[]float64, each empty
)

// GetFloat64s returns a vector of length n whose contents are unspecified:
// the caller must write all n elements before anything reads them. A
// recycled vector too short for n is dropped, never stretched.
func GetFloat64s(n int) []float64 {
	if p, _ := float64sPool.Get().(*[]float64); p != nil {
		v := *p
		*p = nil
		float64sBoxes.Put(p)
		if cap(v) >= n {
			return v[:n]
		}
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
	p := float64sBoxes.Get().(*[]float64)
	*p = v
	float64sPool.Put(p)
}
