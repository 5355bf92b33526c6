package fl

import (
	"fmt"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Folding (DESIGN.md §6) is the rule's, not the round's: whenever the rule
// implements StreamingAggregator the round loop hands each arriving delta to
// the rule's own Fold, which adds it into a running aggregate and recycles it
// before it returns. Config.Streaming only bounds how many clients train, and
// so how many un-folded deltas exist, at once — O(window × dim) — where an
// unbounded round holds up to O(cohort × dim).
//
// Bit-identity contract: the one-shot aggregate is a per-coordinate scalar
// recurrence in participant order (acc[j] += d_i[j] for i = 0,1,2,…, then
// one final scale). Floating-point addition is order-sensitive, so the
// round loop folds survivors strictly in participant order — clients still
// *train* concurrently (a bounded window of them at a time); only the fold
// consumes them in order — and the fold runs exactly that recurrence. Each
// coordinate therefore sees the identical scalar sequence for every worker
// count and dropout set.
//
// A cohort-sliced design (partial sums over client ranges, added at the
// end) was rejected: regrouping float additions changes results bitwise.
// Likewise a running Welford mean (acc += (d-acc)/n) is not bit-identical
// to sum-then-scale, so the fold keeps sum-then-scale.

// StreamingAggregator is implemented by aggregation rules that can fold
// one arriving delta at a time into a running aggregate, as MeanAggregator
// does. The Byzantine-robust rules in internal/robust need every delta at
// once (pairwise distances, per coordinate sorts) and deliberately do not,
// so the server hands them its collect-all fold.
type StreamingAggregator interface {
	Aggregator
	// BeginFold opens one round's fold over parameter vectors of the
	// given dimension. shards and scratch are ignored — the fold adds on
	// its caller's goroutine into a free-list accumulator — and stay only
	// so existing callers compile.
	BeginFold(dim, shards int, scratch *tensor.Arena) Fold
}

// Fold accumulates one round's update deltas. Fold must be called from a
// single goroutine, in participant order over the round's survivors. The
// call hands the delta over (DESIGN.md §6): the caller must neither read
// nor write it afterwards, and MeanAggregator's fold has put it back on the
// free list by the time Fold returns.
// id names the delta's client; the folds of this package do not read it.
// Finish must be called exactly once; it returns the aggregate (nil when
// nothing was folded), which is handed over like a delta: the server puts it
// back on the free list once it has applied it, so a fold must not keep it.
type Fold interface {
	Fold(id int, delta []float64)
	Finish() []float64
}

var _ StreamingAggregator = MeanAggregator{}

// BeginFold implements StreamingAggregator: the streaming form of plain
// coordinate-wise averaging, summing into a zeroed free-list vector.
func (MeanAggregator) BeginFold(dim, _ int, _ *tensor.Arena) Fold {
	acc := wire.GetFloat64s(dim)
	clear(acc)
	return &meanFold{acc: acc}
}

// meanFold is MeanAggregator's fold: a running per-coordinate sum, scaled
// once in Finish. It is also the server's checkpoint seam: a partial
// checkpoint reads acc and n in place, and restore seeds a fresh fold with
// a checkpointed accumulator so a resumed round continues the exact scalar
// sequence. A fold of any other type writes no partial checkpoint.
type meanFold struct {
	acc      []float64
	n        int
	finished bool
}

// Fold implements Fold: the scalar sequence MeanAggregator.Aggregate runs,
// one delta at a time; the delta then goes back on the free list.
func (f *meanFold) Fold(_ int, delta []float64) {
	if f.finished {
		panic("fl: Fold after Finish")
	}
	if len(delta) != len(f.acc) {
		panic(fmt.Sprintf("fl: delta length mismatch %d vs %d", len(delta), len(f.acc)))
	}
	f.n++
	tensor.Add(f.acc, delta)
	wire.PutFloat64s(delta)
}

// restore must be called before the first Fold.
func (f *meanFold) restore(acc []float64, n int) {
	if f.n != 0 {
		panic("fl: fold restore after Fold")
	}
	if len(acc) != len(f.acc) {
		panic(fmt.Sprintf("fl: fold restore dim %d vs %d", len(acc), len(f.acc)))
	}
	copy(f.acc, acc)
	f.n = n
}

// Finish implements Fold: the final scale, timed by runRound's fl.fold.merge
// span. With nothing folded it recycles the accumulator and returns nil.
func (f *meanFold) Finish() []float64 {
	if f.finished {
		panic("fl: Finish called twice")
	}
	f.finished = true
	if f.n == 0 {
		wire.PutFloat64s(f.acc)
		return nil
	}
	tensor.Scale(f.acc, f.acc, 1.0/float64(f.n))
	return f.acc
}
