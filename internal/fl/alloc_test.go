//go:build !race

package fl

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/obs"
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

// TestBatchRoundAllocBudget: a batch round's 64 deltas, the global it
// flattens and the aggregate all come from and go back to the free list
// (DESIGN.md §19), so the round allocates bookkeeping only — a fraction of
// one vector (0.14 measured), where it allocated 66 and then two.
func TestBatchRoundAllocBudget(t *testing.T) {
	if v := roundAllocVectors(t, Config{}); v >= 1 {
		t.Errorf("a warm 64-client batch round allocates %.2f parameter vectors, budget 1", v)
	}
}

// TestStreamingRoundAllocBudget is the same gate on the streaming round,
// whose deltas are recycled by the fold's last shard (0.27 measured: the
// fold items and channels on top of the batch round's bookkeeping).
func TestStreamingRoundAllocBudget(t *testing.T) {
	if v := roundAllocVectors(t, Config{Streaming: true, Shards: 2, StreamWindow: 4}); v >= 1 {
		t.Errorf("a warm 64-client streaming round allocates %.2f parameter vectors, budget 1", v)
	}
}

// TestCheckpointWriteAllocBudget: a durable streaming round cuts a
// checkpoint every few folds, so a warm one — a partial over the fold's
// accumulator, then a boundary, both with a mask section — may allocate its
// bookkeeping (names, the two small structs, log arguments: 0.7 KiB
// measured) and nothing that grows with the model. Assembled from
// intermediate payloads a checkpoint cost three times its own size (880 KB
// for the benchmark's 294 KB file). The bytes go into the checkpointer's
// own buffer: on the wire.Buffer pool, one write in every few dozen runs
// ran on another P than the last one's, found sync.Pool's per-P slot empty
// and grew a buffer from nothing (26 972 B per write over the 20, with the
// collector off). The most a pool miss can still cost is os.ReadDir's
// 8 KiB directory buffer in prune (1 162 B per write).
func TestCheckpointWriteAllocBudget(t *testing.T) {
	_, _, template, _ := tinySetup(t, 66)
	template.PruneModelUnit(template.LastConvIndex(), 2)
	s := syntheticServer(template, 100, 8, Config{Streaming: true, Shards: 2})
	s.SetCheckpointer(&Checkpointer{Dir: t.TempDir(), EveryFolds: 1,
		WriteFile: func(string, []byte) error { return nil }})
	fold, _ := s.beginFold(template.NumParams(), 1)
	defer fold.Finish()
	res := RoundResult{Selected: []int{3, 1, 4, 5, 9, 2, 6, 8}, Completed: []int{3, 1, 4}}
	write := func() {
		s.partialCheckpoint(s.Model, &res, fold, 0, true, obs.SpanContext{})
		if err := s.ckpt.WriteBoundary(s.liveCheckpoint(1)); err != nil {
			t.Fatal(err)
		}
	}
	write() // grows the checkpointer's buffer to a checkpoint's size
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		write()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per partial + boundary write", per)
	if per >= 2048 {
		t.Errorf("a warm partial + boundary checkpoint write allocates %d bytes, budget 2048", per)
	}
}

// TestCheckpointWriteFileMustNotKeepData pins the seam's contract from the
// other side: the bytes WriteFile is handed sit in the checkpointer's
// buffer, which its next write encodes into, so a WriteFile that kept the
// slice holds that write's bytes, and only one that copied still holds its
// checkpoint.
func TestCheckpointWriteFileMustNotKeepData(t *testing.T) {
	var kept, copied [][]byte
	c := &Checkpointer{Dir: t.TempDir(), WriteFile: func(_ string, data []byte) error {
		kept, copied = append(kept, data), append(copied, bytes.Clone(data))
		return nil
	}}
	for round := 1; round <= 2; round++ {
		if err := c.WriteBoundary(&Checkpoint{NextRound: round, Registered: 4, Model: bytes.Repeat([]byte{byte(round)}, 3)}); err != nil {
			t.Fatal(err)
		}
	}
	if &kept[0][0] != &kept[1][0] {
		t.Fatal("the second write did not reuse the first one's buffer")
	}
	if ck, err := DecodeCheckpoint(kept[0]); err == nil && ck.NextRound == 1 {
		t.Error("the slice WriteFile kept still holds its checkpoint after the next write")
	}
	if ck, err := DecodeCheckpoint(copied[0]); err != nil || ck.NextRound != 1 {
		t.Errorf("the copy WriteFile took: %+v, %v", ck, err)
	}
}

// TestInProcessRoundAllocBudget: a round of ten freshly built SmallCNN
// participants (four attackers) over a template whose list is already warm
// allocates next to nothing per update (0.2 KiB measured) — they borrow the
// working model an earlier federation left behind. A participant that
// grows a private model again pays for its clone and for the layer arenas
// its first step faults in: 3958 KiB per update on this cohort when every
// Client and Attacker owned one. The collector is held off throughout, so
// the round's vectors come off the free list the warm rounds filled, and
// one worker means one working model, which the warm rounds have then shown
// every batch size of the cohort (the attackers' poisoned shards each end on
// a tail batch of their own; a first meeting costs a model a header per
// layer buffer, the memory being the full batch's).
func TestInProcessRoundAllocBudget(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	train, _, template, cfg := tinySetup(t, 21)
	build := func() *Server {
		return buildCohortOver(train, template, cfg, 10, func(i int) bool { return i >= 5 && i < 9 })
	}
	warm := build()
	for r := 0; r < 2; r++ {
		warm.RoundDetail(r)
	}
	s := build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := s.RoundDetail(0)
	runtime.ReadMemStats(&after)
	if !res.Applied || len(res.Completed) != 10 {
		t.Fatalf("round: %+v", res)
	}
	kib := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / 10
	t.Logf("%.1f KiB allocated per update", kib)
	const budget = 16
	if kib > budget {
		t.Errorf("a round of fresh participants over a warm list allocates %.1f KiB per update, budget %d", kib, budget)
	}
}

// TestResidentSetFollowsWorkers: what training leaves live on the heap is
// the working models, and their number follows the worker count — a
// 64-client MiniVGG federation under two workers keeps no more than an
// 8-client one, give or take two working models. A float64 working model
// is 9.6 MiB of it; 12.4 when the attacker's tail batch had a buffer set of
// its own beside the full batch's (DESIGN.md §8).
func TestResidentSetFollowsWorkers(t *testing.T) {
	prev := parallel.SetWorkers(2)
	defer parallel.SetWorkers(prev)
	train, _ := dataset.GenSynthCIFAR(dataset.GenConfig{TrainPerClass: 12, TestPerClass: 2, Seed: 58})
	live := func() uint64 {
		// Twice: the first collection only moves the free list's vectors to
		// sync.Pool's victim cache.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// growth is the live heap three rounds of training add to a built
	// federation, and the working models they ran on.
	growth := func(clients int) (bytes int64, models int) {
		f := newVGGFederation(train, clients, Config{LocalEpochs: 1, BatchSize: 20, LR: 0.05}, 59, nil)
		built := live()
		for r := 0; r < 3; r++ {
			f.server.RoundDetail(r)
		}
		bytes = int64(live()) - int64(built)
		runtime.KeepAlive(f)
		return bytes, f.template.Replicas().Made()
	}
	small, models := growth(8)
	large, _ := growth(64)
	perModel := small / int64(models)
	t.Logf("training leaves %d KiB live at 8 clients (%d working models), %d KiB at 64", small>>10, models, large>>10)
	if large > small+2*perModel {
		t.Errorf("64 clients leave %d KiB live, 8 clients %d KiB: more than two working models (%d KiB each) apart",
			large>>10, small>>10, perModel>>10)
	}
	if budget := int64(11 << 20); perModel > budget {
		t.Errorf("a working model keeps %d KiB live, budget %d", perModel>>10, budget>>10)
	}
}
