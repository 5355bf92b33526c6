package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withWorkers runs f with the worker override pinned to n, restoring the
// previous override afterwards.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := SetWorkers(n)
	defer SetWorkers(prev)
	f()
}

func TestWorkersOverride(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	if got := SetWorkers(0); got != 3 {
		t.Fatalf("SetWorkers returned previous override %d, want 3", got)
	}
	if got := Workers(); got < 1 {
		t.Fatalf("automatic Workers() = %d, want >= 1", got)
	}
}

func TestPartitionCoversExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{0, 4}, {1, 1}, {1, 8}, {7, 3}, {8, 3}, {9, 3}, {100, 7}, {5, 5},
	} {
		blocks := Partition(tc.n, tc.parts)
		seen := make([]int, tc.n)
		prevHi := 0
		for _, b := range blocks {
			if b[0] != prevHi {
				t.Fatalf("Partition(%d,%d): block starts at %d, want %d", tc.n, tc.parts, b[0], prevHi)
			}
			if b[1] <= b[0] {
				t.Fatalf("Partition(%d,%d): empty block %v", tc.n, tc.parts, b)
			}
			for i := b[0]; i < b[1]; i++ {
				seen[i]++
			}
			prevHi = b[1]
		}
		if tc.n > 0 && prevHi != tc.n {
			t.Fatalf("Partition(%d,%d): covers [0,%d)", tc.n, tc.parts, prevHi)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("Partition(%d,%d): index %d covered %d times", tc.n, tc.parts, i, c)
			}
		}
	}
}

func TestPartitionBalanced(t *testing.T) {
	blocks := Partition(10, 4)
	if len(blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(blocks))
	}
	sizes := []int{}
	for _, b := range blocks {
		sizes = append(sizes, b[1]-b[0])
	}
	for _, s := range sizes {
		if s != 2 && s != 3 {
			t.Fatalf("unbalanced block sizes %v", sizes)
		}
	}
}

func TestPartitionPanicsOnBadParts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Partition(4, 0) did not panic")
		}
	}()
	Partition(4, 0)
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8, 64} {
		withWorkers(t, w, func() {
			const n = 1000
			counts := make([]int32, n)
			For(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d: index %d visited %d times", w, i, c)
				}
			}
		})
	}
}

// TestForExactlyOnceUnderPanic is the property test of the issue: a panic
// in one task must neither lose other indices nor double-visit any, and
// the panic must surface in the caller.
func TestForExactlyOnceUnderPanic(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		for _, bad := range []int{0, 17, 99} {
			withWorkers(t, w, func() {
				const n = 100
				counts := make([]int32, n)
				var recovered any
				func() {
					defer func() { recovered = recover() }()
					For(n, func(i int) {
						atomic.AddInt32(&counts[i], 1)
						if i == bad {
							panic("task failure")
						}
					})
				}()
				if recovered != "task failure" {
					t.Fatalf("workers=%d bad=%d: recovered %v, want task panic", w, bad, recovered)
				}
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("workers=%d bad=%d: index %d visited %d times", w, bad, i, c)
					}
				}
			})
		}
	}
}

func TestForBlocksCoversRange(t *testing.T) {
	for _, w := range []int{1, 2, 5, 16} {
		withWorkers(t, w, func() {
			const n = 103
			counts := make([]int32, n)
			ForBlocks(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d: index %d covered %d times", w, i, c)
				}
			}
		})
	}
}

func TestForBlocksPropagatesPanic(t *testing.T) {
	withWorkers(t, 4, func() {
		defer func() {
			if recover() != "block failure" {
				t.Fatal("block panic not propagated")
			}
		}()
		ForBlocks(16, func(lo, hi int) {
			if lo == 0 {
				panic("block failure")
			}
		})
	})
}

func TestForBlocksIndexedMatchesPartition(t *testing.T) {
	for _, w := range []int{1, 2, 5, 16} {
		withWorkers(t, w, func() {
			const n = 103
			want := Partition(n, NumBlocks(n))
			got := make([][2]int, len(want))
			hits := make([]int32, len(want))
			ForBlocksIndexed(n, func(blk, lo, hi int) {
				atomic.AddInt32(&hits[blk], 1)
				got[blk] = [2]int{lo, hi}
			})
			for blk := range want {
				if hits[blk] != 1 {
					t.Fatalf("workers=%d: block %d run %d times", w, blk, hits[blk])
				}
				if got[blk] != want[blk] {
					t.Fatalf("workers=%d: block %d = %v, want %v", w, blk, got[blk], want[blk])
				}
			}
		})
	}
}

func TestNumBlocks(t *testing.T) {
	withWorkers(t, 4, func() {
		for _, tc := range []struct{ n, want int }{
			{-1, 0}, {0, 0}, {1, 1}, {3, 3}, {4, 4}, {5, 4}, {100, 4},
		} {
			if got := NumBlocks(tc.n); got != tc.want {
				t.Fatalf("NumBlocks(%d) = %d with 4 workers, want %d", tc.n, got, tc.want)
			}
		}
	})
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, func(int) { called = true })
	For(-3, func(int) { called = true })
	ForBlocks(0, func(int, int) { called = true })
	if called {
		t.Fatal("empty ranges invoked the body")
	}
}

// TestForIsWorkConserving: with 2 workers and 10 indices, index 0 blocks
// until the other nine have run. A claim loop lets the free worker take
// all nine; a contiguous pre-partition parks indices 1-4 behind index 0
// and hangs. Timing-free: the timeout only bounds the failure.
func TestForIsWorkConserving(t *testing.T) {
	withWorkers(t, 2, func() {
		const n = 10
		othersDone := make(chan struct{})
		var release sync.Once
		var others atomic.Int32
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			For(n, func(i int) {
				if i == 0 {
					<-othersDone
					return
				}
				if others.Add(1) == n-1 {
					release.Do(func() { close(othersDone) })
				}
			})
		}()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			release.Do(func() { close(othersDone) }) // drain the parked For before failing
			<-finished
			t.Fatal("For left indices queued behind a blocked one while a worker sat idle")
		}
	})
}
