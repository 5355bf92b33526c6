//go:build !race

package metrics

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// Allocation-regression gates for the warm suffix-evaluation path
// (ISSUE 3): once a scope is warm, every Evaluate replays only the suffix
// layers through reusable arena buffers and allocates nothing. Workers are
// pinned to 1 (fanning out allocates its goroutines) and the gates are
// excluded under the race detector, whose instrumentation allocates.

func allocFixture() (*nn.Sequential, *dataset.Dataset) {
	_, test := dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 1, TestPerClass: 10, Seed: 78})
	rng := rand.New(rand.NewSource(79))
	return nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rng), test
}

func TestPruneScopedEvaluateWarmAllocFree(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	m, ds := allocFixture()
	li := m.LastConvIndex()
	e := NewSuffixEvaluator(ds, 32)
	e.BeginPrune(m, li)
	defer e.EndScope()
	m.PruneModelUnit(li, 3)
	e.Evaluate(m) // warm: arena buffers, preds slice
	e.Evaluate(m)
	if allocs := testing.AllocsPerRun(10, func() { e.Evaluate(m) }); allocs != 0 {
		t.Errorf("warm prune-scoped Evaluate: %v allocs/op, want 0", allocs)
	}
}

func TestSuffixScopedEvaluateWarmAllocFree(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	m, ds := allocFixture()
	li := -1 // first dense layer: the AW sweep's second target
	for i := 0; i < m.NumLayers(); i++ {
		if _, ok := m.Layer(i).(*nn.Dense); ok {
			li = i
			break
		}
	}
	e := NewSuffixEvaluator(ds, 32)
	e.BeginSuffix(m, li)
	defer e.EndScope()
	e.Evaluate(m)
	e.Evaluate(m)
	if allocs := testing.AllocsPerRun(10, func() { e.Evaluate(m) }); allocs != 0 {
		t.Errorf("warm suffix-scoped Evaluate: %v allocs/op, want 0", allocs)
	}
}

// The guarded prune loop around the evaluator — capture, prune, evaluate,
// restore — is the PruneToThreshold hot path; with a reused snapshot it
// must also be allocation-free once warm.
func TestGuardedPruneStepWarmAllocFree(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	m, ds := allocFixture()
	li := m.LastConvIndex()
	e := NewSuffixEvaluator(ds, 32)
	e.BeginPrune(m, li)
	defer e.EndScope()
	var snap nn.UnitSnapshot
	step := func() {
		snap = m.CaptureUnit(li, 5, snap)
		m.PruneModelUnit(li, 5)
		e.Evaluate(m)
		m.RestoreUnit(snap)
	}
	step()
	step()
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Errorf("warm guarded prune step: %v allocs/op, want 0", allocs)
	}
}

// The int8 report path: once the code buffer is sized, warm requantization
// moves no memory at all, and recording through the quantizer costs exactly
// what the float64 recorder costs.
func TestQuantizeWarmAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	acts := make([]float64, 512)
	for i := range acts {
		acts[i] = rng.NormFloat64()
	}
	var q QuantActs
	q.Quantize(acts)
	if allocs := testing.AllocsPerRun(10, func() { q.Quantize(acts) }); allocs != 0 {
		t.Errorf("warm Quantize: %v allocs/op, want 0", allocs)
	}
}

func TestRecordQuantActivationsAllocFree(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	m, ds := allocFixture()
	li := m.LastConvIndex()
	var q QuantActs
	RecordQuantActivations(&q, m, li, ds, 32)
	RecordQuantActivations(&q, m, li, ds, 32)
	float64Path := testing.AllocsPerRun(10, func() { LocalActivations(m, li, ds, 32) })
	int8Path := testing.AllocsPerRun(10, func() { RecordQuantActivations(&q, m, li, ds, 32) })
	if int8Path > float64Path {
		t.Errorf("warm int8 recording: %v allocs/op vs %v for float64; quantization must add none",
			int8Path, float64Path)
	}
}

// The plain metric loops (Accuracy, LocalActivations) run their batches
// on the model's lent inference buffers: per call they still allocate
// their small batch/label/result buffers, but the per-batch cost must be
// zero — evaluating 4× as many batches may not allocate a single byte
// more. Measured against a warm model so the layer arenas are sized.
func TestMetricLoopsBatchesAllocFree(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	_, testAll := dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 1, TestPerClass: 13, Seed: 80})
	rng := rand.New(rand.NewSource(81))
	m := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rng)
	// Exact batch multiples, so the comparison isolates the per-batch cost
	// (a ragged tail batch legitimately resizes the input buffers once).
	const batch = 32
	test := &dataset.Dataset{Shape: testAll.Shape, Classes: testAll.Classes, Samples: testAll.Samples[:4*batch]}
	one := &dataset.Dataset{Shape: testAll.Shape, Classes: testAll.Classes, Samples: testAll.Samples[:batch]}
	li := m.LastConvIndex()

	cases := []struct {
		name string
		eval func(ds *dataset.Dataset)
	}{
		{"Accuracy", func(ds *dataset.Dataset) { Accuracy(m, ds, batch) }},
		{"LocalActivations", func(ds *dataset.Dataset) { LocalActivations(m, li, ds, batch) }},
	}
	for _, c := range cases {
		c.eval(test) // warm the model's eval arenas at full batch size
		c.eval(one)
		perCallOne := testing.AllocsPerRun(10, func() { c.eval(one) })
		perCallAll := testing.AllocsPerRun(10, func() { c.eval(test) })
		if perCallAll > perCallOne {
			t.Errorf("%s: %v allocs over %d batches vs %v over 1 batch; extra batches must be allocation-free",
				c.name, perCallAll, (test.Len()+batch-1)/batch, perCallOne)
		}
	}
}

// TestUnscopedEvaluateWarmAllocBudget gates the defense's full evaluations:
// an unscoped SuffixEvaluator.Evaluate — the guard's score outside a sweep
// scope — runs on the model's lent inference buffers, so a warm call of a
// float64 SmallCNN on a validation slice the size of the MNIST scenario's
// (210 samples: three full batches and a short one) allocates next to
// nothing (a fresh output per layer and batch would cost 11.5 MiB).
func TestUnscopedEvaluateWarmAllocBudget(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	_, test := dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 1, TestPerClass: 70, Seed: 11})
	val := &dataset.Dataset{Shape: test.Shape, Classes: test.Classes, Samples: test.Samples[:test.Len()*3/10]}
	m := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rand.New(rand.NewSource(83)))
	e := NewSuffixEvaluator(val, 0)
	e.Evaluate(m) // warm: layer scratch, batch and prediction buffers
	e.Evaluate(m)
	const calls = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		e.Evaluate(m)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d bytes per warm unscoped Evaluate over %d samples", per, val.Len())
	const budget = 256 << 10
	if per > budget {
		t.Errorf("a warm unscoped Evaluate allocates %d bytes, budget %d", per, budget)
	}
}
