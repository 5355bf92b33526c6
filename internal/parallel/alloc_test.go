//go:build !race

package parallel

import (
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/obs"
)

// Allocation-regression gates for the instrumented fan-out (ISSUE 10):
// the parallel_for_tasks_total counter and parallel_for_queue_depth gauge
// are recorded per block through atomics, so the single-worker inline
// path — the warm path inside every tensor kernel running under
// FEDCLEANSE_WORKERS=1 or on sub-block inputs — must stay alloc-free.
// Excluded under the race detector, whose instrumentation allocates.

var allocSink int

func TestForBlocksInlineWarmAllocFree(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	f := func(_, lo, hi int) { allocSink += hi - lo }
	if allocs := testing.AllocsPerRun(100, func() {
		ForBlocksIndexed(64, f)
	}); allocs != 0 {
		t.Errorf("warm inline ForBlocksIndexed: %v allocs/op, want 0", allocs)
	}
}

// TestForBlocksCounters pins the per-goroutine accounting: one task per
// block (or claim-loop worker), and the queue-depth gauge drains back to
// its starting level.
func TestForBlocksCounters(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	tasks0 := obs.M.ForTasks.Value()
	depth0 := obs.M.ForQueueDepth.Value()
	ForBlocksIndexed(100, func(_, _, _ int) {})
	if got := obs.M.ForTasks.Value() - tasks0; got != 4 {
		t.Errorf("fanned-out ForBlocksIndexed counted %d tasks, want 4", got)
	}
	if got := obs.M.ForQueueDepth.Value(); got != depth0 {
		t.Errorf("queue depth did not drain: %d, want %d", got, depth0)
	}
	// The claim loop counts per worker goroutine too, never per index.
	tasks0 = obs.M.ForTasks.Value()
	For(100, func(int) {})
	if got := obs.M.ForTasks.Value() - tasks0; got != 4 {
		t.Errorf("fanned-out For counted %d tasks, want 4", got)
	}
	SetWorkers(1)
	tasks0 = obs.M.ForTasks.Value()
	ForBlocksIndexed(100, func(_, _, _ int) {})
	if got := obs.M.ForTasks.Value() - tasks0; got != 1 {
		t.Errorf("inline ForBlocksIndexed counted %d tasks, want 1", got)
	}
}
