package fl

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Streaming aggregation (DESIGN.md §6) is a choice of fold, not of round:
// under Config.Streaming the round loop hands each arriving delta to the
// rule's own Fold, which adds it into a running aggregate and recycles it
// as soon as the last shard has read it (§6), so peak memory follows the
// collection window — O(window × dim) — where the collect-all fold of a
// round that does not stream holds O(cohort × dim).
//
// Bit-identity contract: the one-shot aggregate is a per-coordinate scalar
// recurrence in participant order (acc[j] += d_i[j] for i = 0,1,2,…, then
// one final scale). Floating-point addition is order-sensitive, so the
// fold preserves exactly that order in two ways:
//
//   - The round loop folds survivors strictly in participant order.
//     Clients still *train* concurrently (a bounded window of them at a
//     time); only the fold consumes them in order.
//   - Shards parallelize across the parameter dimension, not across
//     clients: shard s owns the contiguous coordinate range
//     Partition(dim, shards)[s] and applies every fold to its range in
//     arrival (= participant) order. Each coordinate therefore sees the
//     identical scalar sequence for every shard count, worker count and
//     dropout set, and merging the shard partials is the concatenation of
//     their ranges in shard order — exact by construction.
//
// A cohort-sliced design (shard s folds clients [lo,hi) and partial sums
// are added at the end) was rejected: regrouping float additions changes
// results bitwise. Likewise a running Welford mean (acc += (d-acc)/n) is
// not bit-identical to sum-then-scale, so the fold keeps sum-then-scale.

// StreamingAggregator is implemented by aggregation rules that can fold
// one arriving delta at a time into a running aggregate. MeanAggregator
// streams; the Byzantine-robust rules in internal/robust need every delta
// at once (pairwise distances, per coordinate sorts) and deliberately do
// not, so a streaming server hands them its collect-all fold.
type StreamingAggregator interface {
	Aggregator
	// BeginFold opens one round's fold over parameter vectors of the
	// given dimension, parallelized across shards aggregator goroutines
	// (Config.Shards as set: 0 means the parallel worker count, 1 folds
	// inline on the caller's goroutine). scratch, when
	// non-nil, backs the running accumulator so a long-lived server reuses
	// one buffer across rounds; the slice returned by Finish then remains
	// valid only until the next BeginFold against the same arena.
	BeginFold(dim, shards int, scratch *tensor.Arena) Fold
}

// Fold accumulates one round's update deltas. Fold must be called from a
// single goroutine, in participant order over the round's survivors. The
// call hands the delta over (DESIGN.md §6): the caller must neither read
// nor write it afterwards, and the fold recycles it once nothing of its own
// reads it any more — which, with shards, is after Fold has returned.
// id names the delta's client; the folds of this package do not read it.
// Finish must be called exactly once; it merges the shard partials and
// returns the aggregate (nil when nothing was folded).
type Fold interface {
	Fold(id int, delta []float64)
	Finish() []float64
}

var _ StreamingAggregator = MeanAggregator{}

// BeginFold implements StreamingAggregator: the streaming form of plain
// coordinate-wise averaging.
func (MeanAggregator) BeginFold(dim, shards int, scratch *tensor.Arena) Fold {
	return newShardedFold(dim, shards, scratch)
}

// foldQueueDepth is the per-shard channel buffer. A queued delta is still
// referenced until every shard has folded its range, so the depth bounds
// how far the fold pipeline can run ahead of the slowest shard — part of
// the O(window) peak-memory budget, kept deliberately small.
const foldQueueDepth = 4

// foldItem is one delta in flight to the shard goroutines. left counts the
// shards that have yet to fold it: Fold returning means only that the item
// is queued, so the delta is dead — and recycled — when the shard that
// takes left to zero is done, not before.
type foldItem struct {
	delta []float64
	left  atomic.Int32
}

// shardedFold is MeanAggregator's fold: a running per-coordinate sum over
// coordinate-range shards, scaled once in Finish.
type shardedFold struct {
	acc      []float64
	ranges   [][2]int
	chans    []chan *foldItem
	wg       sync.WaitGroup
	syncWg   sync.WaitGroup
	n        int
	finished bool
}

// foldSnapshotter is the checkpoint seam on a Fold: snapshot quiesces the
// shards and hands out the running state; restore seeds a fresh fold with a
// checkpointed accumulator so a resumed round continues the exact scalar
// sequence. Folds that cannot snapshot simply don't implement it — the
// server then skips partial checkpoints for that aggregation rule.
type foldSnapshotter interface {
	snapshot() (acc []float64, n int)
	restore(acc []float64, n int)
}

var _ foldSnapshotter = (*shardedFold)(nil)

// newShardedFold sizes the shard plan and spins up the shard goroutines.
// shards <= 0 resolves to the parallel worker count; it is capped at dim
// so every shard owns at least one coordinate.
func newShardedFold(dim, shards int, scratch *tensor.Arena) *shardedFold {
	if shards <= 0 {
		shards = parallel.Workers()
	}
	shards = max(1, min(shards, dim))
	var acc []float64
	if scratch != nil {
		t := scratch.Get("fl.fold.acc", dim)
		t.Zero()
		acc = t.Data
	} else {
		acc = make([]float64, dim)
	}
	f := &shardedFold{acc: acc}
	if shards > 1 {
		f.ranges = parallel.Partition(dim, shards)
		f.chans = make([]chan *foldItem, len(f.ranges))
		for s := range f.chans {
			ch := make(chan *foldItem, foldQueueDepth)
			f.chans[s] = ch
			lo, hi := f.ranges[s][0], f.ranges[s][1]
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				for it := range ch {
					// A nil item is the quiesce barrier (see snapshot):
					// by FIFO order every prior item has been folded.
					if it == nil {
						f.syncWg.Done()
						continue
					}
					tensor.Add(f.acc[lo:hi], it.delta[lo:hi])
					if it.left.Add(-1) == 0 {
						wire.PutFloat64s(it.delta)
					}
				}
			}()
		}
	}
	return f
}

// Fold implements Fold. Each shard adds the delta's range into its own —
// the scalar sequence MeanAggregator.Aggregate runs.
func (f *shardedFold) Fold(_ int, delta []float64) {
	if f.finished {
		panic("fl: Fold after Finish")
	}
	if len(delta) != len(f.acc) {
		panic(fmt.Sprintf("fl: delta length mismatch %d vs %d", len(delta), len(f.acc)))
	}
	f.n++
	if f.chans == nil {
		tensor.Add(f.acc, delta)
		wire.PutFloat64s(delta)
		return
	}
	it := &foldItem{delta: delta}
	it.left.Store(int32(len(f.chans)))
	for _, ch := range f.chans {
		ch <- it
	}
}

// quiesce blocks until every shard has folded everything queued before the
// call: one nil barrier item per shard channel, acknowledged through
// syncWg. The per-shard channels are FIFO with a single consumer, so once
// every barrier is acknowledged the accumulator is consistent — and the
// WaitGroup edge publishes the shard goroutines' acc writes to the caller.
func (f *shardedFold) quiesce() {
	if f.chans == nil {
		return
	}
	f.syncWg.Add(len(f.chans))
	for _, ch := range f.chans {
		ch <- nil
	}
	f.syncWg.Wait()
}

// snapshot implements foldSnapshotter: the accumulator plus the fold count,
// consistent as of every Fold call that returned before snapshot was
// called. The accumulator is the fold's own, not a copy.
// The shards are drained and only a Fold call gives them more to do, and
// Fold is called from the one goroutine that is calling snapshot — so the
// caller may read it until it next calls Fold or Finish, and must not write
// it.
func (f *shardedFold) snapshot() ([]float64, int) {
	f.quiesce()
	return f.acc, f.n
}

// restore implements foldSnapshotter. Must be called before the first
// Fold; the channel sends of subsequent folds publish the restored state
// to the shard goroutines.
func (f *shardedFold) restore(acc []float64, n int) {
	if f.n != 0 {
		panic("fl: fold restore after Fold")
	}
	if len(acc) != len(f.acc) {
		panic(fmt.Sprintf("fl: fold restore dim %d vs %d", len(acc), len(f.acc)))
	}
	copy(f.acc, acc)
	f.n = n
}

// Finish implements Fold: it drains and joins the shard goroutines —
// merging the partial aggregates in shard order, which for coordinate
// -range shards is the concatenation of their ranges — then applies the
// final scale. The round times it: runRound's fl.fold.merge span feeds
// fl_shard_merge_seconds.
func (f *shardedFold) Finish() []float64 {
	if f.finished {
		panic("fl: Finish called twice")
	}
	f.finished = true
	for _, ch := range f.chans {
		close(ch)
	}
	f.wg.Wait()
	if f.n == 0 {
		return nil
	}
	tensor.Scale(f.acc, f.acc, 1.0/float64(f.n))
	return f.acc
}
