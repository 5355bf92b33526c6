package wire

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// TestFloat64sFreeList pins the free list's contract: Get returns exactly
// n elements whatever was recycled before — a shorter vector is never
// stretched, a longer one is cut — and empty vectors are not kept.
func TestFloat64sFreeList(t *testing.T) {
	PutFloat64s(nil)
	PutFloat64s([]float64{})
	for _, n := range []int{0, 1, 37, 1000} {
		PutFloat64s(make([]float64, 37))
		v := GetFloat64s(n)
		if len(v) != n || cap(v) < n {
			t.Fatalf("GetFloat64s(%d): len %d cap %d", n, len(v), cap(v))
		}
		for i := range v {
			v[i] = float64(i) // every element is writable
		}
		PutFloat64s(v)
	}
}

// TestFloat64sFreeListOutlivesCollections: what a round puts back is what the
// next round gets, however many collections ran in between — the property a
// sync.Pool does not have, and the reason one run of cleanse_cifar_f32
// allocated a cohort of vectors more than the next (DESIGN.md §6).
func TestFloat64sFreeListOutlivesCollections(t *testing.T) {
	const cohort, n = 10, 4096
	held := make([][]float64, cohort)
	for i := range held {
		held[i] = GetFloat64s(n)
	}
	first := make(map[*float64]bool, cohort)
	for _, v := range held {
		first[&v[0]] = true
		PutFloat64s(v)
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	for i := range held {
		held[i] = GetFloat64s(n)
		if !first[&held[i][0]] {
			t.Fatalf("Get %d after three collections returned a fresh vector", i)
		}
	}
	for _, v := range held {
		PutFloat64s(v)
	}
}

// TestPutFloat64sPoisonsUnderRace: in race builds a recycled vector reads
// NaN over its whole capacity, so whatever kept reading it computes NaN; in
// other builds Put leaves it alone. (Looking at a vector after putting it
// back is the bug itself — done here, on one goroutine, to see the poison.)
func TestPutFloat64sPoisonsUnderRace(t *testing.T) {
	v := make([]float64, 64)
	for i := range v {
		v[i] = 1
	}
	PutFloat64s(v[:16])
	for i, x := range v {
		if poisonOnPut != math.IsNaN(x) {
			t.Fatalf("element %d = %v after PutFloat64s with poisonOnPut=%v", i, x, poisonOnPut)
		}
	}
}

// TestFloat64sFreeListConcurrent moves vectors between goroutines the way
// a round does — filled by one, read and recycled by another — for the race
// detector to watch.
func TestFloat64sFreeListConcurrent(t *testing.T) {
	const n, per = 512, 200
	ch := make(chan []float64, 4)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				v := GetFloat64s(n)
				for i := range v {
					v[i] = float64(p)
				}
				ch <- v
			}
		}(p)
	}
	go func() { wg.Wait(); close(ch) }()
	for v := range ch {
		for i, x := range v {
			if x != v[0] {
				t.Fatalf("element %d = %v, element 0 = %v: a vector was handed out twice", i, x, v[0])
			}
		}
		PutFloat64s(v)
	}
}
