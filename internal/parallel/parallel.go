// Package parallel provides the deterministic fan-out behind the
// repository's concurrent hot paths: per-client local training in
// internal/fl, per-client activation reports in internal/core, and the
// row-blocked tensor kernels in internal/tensor.
//
// Two shapes, two guarantees. ForBlocks/ForBlocksIndexed split [0,n) into
// contiguous blocks whose boundaries depend only on n and the worker
// count; a block is the unit of ownership, so kernels key scratch on it.
// For hands out single indices to whichever worker is free next (a claim
// loop), so uneven per-index cost never idles a worker while indices
// remain; which goroutine runs an index is unspecified. Either
// way every index is visited exactly once, so callers that write results
// only into per-index (or per-block) destinations and reduce them
// serially in index order produce bit-identical output for every worker
// count, including 1 — the property the simulation and kernel tests
// assert.
//
// The worker count resolves, in priority order, to the SetWorkers override,
// the FEDCLEANSE_WORKERS environment variable, and finally GOMAXPROCS.
package parallel

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/fedcleanse/fedcleanse/internal/obs"
)

// EnvWorkers is the environment variable that pins the worker count for a
// whole process, e.g. FEDCLEANSE_WORKERS=1 to force every parallel path
// serial when reproducing paper tables.
const EnvWorkers = "FEDCLEANSE_WORKERS"

// override holds the process-wide worker-count override installed by
// SetWorkers; 0 means automatic (environment variable or GOMAXPROCS).
var override atomic.Int64

// envWorkers caches the EnvWorkers value read at startup. Invalid or
// non-positive values are ignored.
var envWorkers = func() int {
	s := os.Getenv(EnvWorkers)
	if s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		fmt.Fprintf(os.Stderr, "parallel: ignoring invalid %s=%q\n", EnvWorkers, s)
		return 0
	}
	return n
}()

// Workers returns the effective worker count: the SetWorkers override if
// one is installed, else FEDCLEANSE_WORKERS, else GOMAXPROCS.
func Workers() int {
	if n := override.Load(); n > 0 {
		return int(n)
	}
	if envWorkers > 0 {
		return envWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers installs a process-wide worker-count override and returns the
// previous override (0 means automatic). n <= 0 removes the override.
// Benchmarks and tests use it to compare serial and parallel execution of
// the same code path.
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(override.Swap(int64(n)))
}

// Partition splits [0,n) into at most parts contiguous half-open ranges
// {lo,hi} of near-equal size (the first n%parts ranges are one larger).
// The boundaries are a pure function of n and parts, which is what makes
// block-parallel execution deterministic. parts <= 0 panics; n <= 0
// returns nil.
func Partition(n, parts int) [][2]int {
	if parts <= 0 {
		panic(fmt.Sprintf("parallel: Partition into %d parts", parts))
	}
	if n <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	base, rem := n/parts, n%parts
	out := make([][2]int, parts)
	lo := 0
	for i := range out {
		hi := lo + base
		if i < rem {
			hi++
		}
		out[i] = [2]int{lo, hi}
		lo = hi
	}
	return out
}

// panicRecorder collects the first panic raised by any task so the caller
// can re-raise it after every worker has drained. Recording instead of
// crashing keeps the exactly-once visit guarantee: one panicking index
// never prevents sibling indices from running.
type panicRecorder struct {
	mu  sync.Mutex
	set bool
	val any
}

func (r *panicRecorder) record(v any) {
	r.mu.Lock()
	if !r.set {
		r.set, r.val = true, v
	}
	r.mu.Unlock()
}

// repanic re-raises the first recorded panic, if any. It must only be
// called after all tasks finished (e.g. past a WaitGroup.Wait), which
// orders the record before the read.
func (r *panicRecorder) repanic() {
	if r.set {
		panic(r.val)
	}
}

// ForBlocks runs f over the deterministic Partition of [0,n), one block
// per worker goroutine (inline when a single worker suffices). It returns
// after every block completed; if any block panicked, the first panic is
// re-raised in the caller's goroutine.
func ForBlocks(n int, f func(lo, hi int)) {
	ForBlocksIndexed(n, func(_, lo, hi int) { f(lo, hi) })
}

// ForBlocksIndexed is ForBlocks with the block's index passed to f. blk is
// the block's position in Partition(n, NumBlocks(n)) — a pure function of n
// and the worker count — so callers can key reusable per-block scratch
// buffers on it without races: block blk is executed by exactly one
// goroutine per call.
func ForBlocksIndexed(n int, f func(blk, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := NumBlocks(n)
	if w <= 1 {
		obs.M.ForTasks.Inc()
		f(0, 0, n)
		return
	}
	// One counter add and one gauge inc/dec per *block*, never per index:
	// atomics don't allocate, so the kernels' alloc gates hold (see
	// alloc_test.go), and the per-call cost is noise next to the block's
	// work. The queue-depth gauge covers only the fanned-out blocks — the
	// inline path above never queues.
	obs.M.ForTasks.Add(uint64(w))
	var wg sync.WaitGroup
	var pr panicRecorder
	for i, b := range Partition(n, w) {
		blk, lo, hi := i, b[0], b[1]
		wg.Add(1)
		obs.M.ForQueueDepth.Inc()
		go func() {
			defer wg.Done()
			defer obs.M.ForQueueDepth.Dec()
			defer func() {
				if v := recover(); v != nil {
					pr.record(v)
				}
			}()
			f(blk, lo, hi)
		}()
	}
	wg.Wait()
	pr.repanic()
}

// NumBlocks returns the number of blocks ForBlocks/ForBlocksIndexed will
// split [0,n) into — and the number of workers For will run — under the
// current worker count: min(Workers(), n), at least 1 for positive n.
// Callers sizing per-block scratch use it.
func NumBlocks(n int) int {
	if n <= 0 {
		return 0
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For runs f(i) for every i in [0,n) on NumBlocks(n) worker goroutines
// that each claim the next unclaimed index until none are left, so no
// worker idles while indices remain, however uneven their cost. Which
// goroutine runs which index is unspecified.
//
// Every index is visited exactly once even when some calls panic: a panic
// is caught per index, the remaining indices still run, and the first
// panic is re-raised after all workers drain.
func For(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	var pr panicRecorder
	var next atomic.Int64
	// One single-index block per worker: the fan-out, its per-goroutine
	// metrics and the inline single-worker path are ForBlocks'.
	ForBlocks(NumBlocks(n), func(_, _ int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			callRecover(&pr, f, i)
		}
	})
	pr.repanic()
}

// callRecover invokes f(i), diverting a panic into the recorder.
func callRecover(pr *panicRecorder, f func(i int), i int) {
	defer func() {
		if v := recover(); v != nil {
			pr.record(v)
		}
	}()
	f(i)
}
