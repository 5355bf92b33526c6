//go:build !race

package fl

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// TestTrainerWarmAllocFree gates the end-to-end local-update hot path: a
// warm Trainer.Train call — batch assembly, forward, loss, backward and
// optimizer steps over a whole local epoch — performs zero heap
// allocations. Workers are pinned to 1 (the parallel conv path allocates
// its goroutines) and the test is excluded under the race detector, whose
// instrumentation allocates.
func TestTrainerWarmAllocFree(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	train, _, template, cfg := tinySetup(t, 61)
	shard := dataset.PartitionKLabel(train, 1, 3, 50, rand.New(rand.NewSource(62)))[0]
	m := template.Clone()
	tr := NewTrainer(cfg)
	rng := rand.New(rand.NewSource(63))

	tr.Train(m, shard, rng) // warm: scratch, velocity, label buffer
	if allocs := testing.AllocsPerRun(5, func() { tr.Train(m, shard, rng) }); allocs != 0 {
		t.Errorf("warm Trainer.Train: %v allocs/op, want 0", allocs)
	}
}

// roundAllocVectors is what one warm 64-client round over synthetic
// participants allocates, in parameter vectors. The collector is held off
// while it measures, so the free list is trimmed by nothing but the round
// itself.
func roundAllocVectors(t *testing.T, cfg Config) float64 {
	t.Helper()
	prev := parallel.SetWorkers(2)
	defer parallel.SetWorkers(prev)
	_, _, template, _ := tinySetup(t, 64)
	s := syntheticServer(template, 1000, 64, cfg)
	const warm, rounds = 3, 10
	for r := 0; r < warm; r++ {
		s.RoundDetail(r)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := warm; r < warm+rounds; r++ {
		if res := s.RoundDetail(r); !res.Applied || len(res.Completed) != 64 {
			t.Fatalf("round %d: %+v", r, res)
		}
	}
	runtime.ReadMemStats(&after)
	vectors := float64(after.TotalAlloc-before.TotalAlloc) / rounds / float64(8*template.NumParams())
	t.Logf("%.2f parameter vectors allocated per round", vectors)
	return vectors
}

// TestBatchRoundAllocBudget: a batch round's 64 deltas come from and go back
// to the free list (DESIGN.md §19), so the round allocates the global it
// flattens, the aggregate and slack — fewer than three vectors, where it
// allocated 66.
func TestBatchRoundAllocBudget(t *testing.T) {
	if v := roundAllocVectors(t, Config{}); v >= 3 {
		t.Errorf("a warm 64-client batch round allocates %.2f parameter vectors, budget 3", v)
	}
}

// TestStreamingRoundAllocBudget is the same gate on the streaming round,
// whose deltas are recycled by the fold's last shard.
func TestStreamingRoundAllocBudget(t *testing.T) {
	if v := roundAllocVectors(t, Config{Streaming: true, Shards: 2, StreamWindow: 4}); v >= 3 {
		t.Errorf("a warm 64-client streaming round allocates %.2f parameter vectors, budget 3", v)
	}
}
