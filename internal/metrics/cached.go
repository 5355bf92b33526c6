package metrics

import (
	"fmt"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// scopeMode is the SuffixEvaluator's current mutation scope.
type scopeMode int

const (
	scopeNone scopeMode = iota
	// scopeSuffix: mutations confined to layers ≥ boundary; the cache holds
	// activations entering the boundary layer.
	scopeSuffix
	// scopePrune: mutations are unit prunes of the layer just before the
	// boundary; the cache holds that layer's unpruned output and Evaluate
	// zeroes the currently-pruned channels before replaying the suffix.
	scopePrune
)

// SuffixEvaluator scores models on a fixed dataset and implements
// core.ScopedEvaluator with prefix-activation caching: inside a scope the
// dataset is run through the invariant prefix of the network once, the
// boundary activations are held in a batch-keyed cache, and every Evaluate
// replays only the suffix — bit-identical to a full forward pass, because
// the suffix executes the same ops on the same floats (DESIGN.md §9).
//
// Outside a scope (or for a model other than the scoped one) Evaluate
// falls back to a full forward pass with reusable batch buffers, returning
// exactly what Accuracy would.
//
// The evaluator owns reusable buffers and is therefore single-goroutine
// state, like the layers themselves; concurrent evaluations need one
// SuffixEvaluator each.
type SuffixEvaluator struct {
	ds    *dataset.Dataset
	batch int

	// labs caches every sample label in dataset order (batch b's labels are
	// labs[b·batch : ...]; the dataset is never reordered under us — the
	// defense loops evaluate a fixed validation split).
	labs []int

	// Reusable full-path buffers: batch assembly and predictions.
	x      *tensor.Tensor
	labels []int
	preds  []int

	// Scope state. acts holds one owned boundary-activation tensor per
	// batch; the backing buffers live in arena (batch-index keyed), so
	// repeated Begin/End cycles reuse them.
	mode     scopeMode
	bound    *nn.Sequential
	boundary int // first suffix layer: Evaluate replays layers [boundary, N)
	prunable nn.Prunable
	acts     []*tensor.Tensor
	arena    tensor.Arena
}

var _ interface {
	Evaluate(m *nn.Sequential) float64
	BeginSuffix(m *nn.Sequential, layerIdx int)
	BeginPrune(m *nn.Sequential, layerIdx int)
	EndScope()
} = (*SuffixEvaluator)(nil)

// NewSuffixEvaluator builds a cached accuracy evaluator over ds. batch ≤ 0
// selects DefaultBatch (matching Accuracy).
func NewSuffixEvaluator(ds *dataset.Dataset, batch int) *SuffixEvaluator {
	if batch <= 0 {
		batch = DefaultBatch
	}
	e := &SuffixEvaluator{ds: ds, batch: batch, labs: make([]int, ds.Len())}
	for i, s := range ds.Samples {
		e.labs[i] = s.Label
	}
	return e
}

// NewCachedASR builds a cached attack-success-rate evaluator: the poisoned
// test set is constructed once here instead of on every call (what
// AttackSuccessRate does), so sweeps stop re-poisoning the same images
// hundreds of times. Scores are identical to AttackSuccessRate — poisoning
// is deterministic.
func NewCachedASR(test *dataset.Dataset, cfg dataset.PoisonConfig, batch int) *SuffixEvaluator {
	return NewSuffixEvaluator(dataset.PoisonTestSet(test, cfg), batch)
}

// Evaluate implements core.ScopedEvaluator: accuracy of m over the
// evaluator's dataset. Inside a scope bound to m only the suffix layers
// run; any other model gets a full forward pass.
func (e *SuffixEvaluator) Evaluate(m *nn.Sequential) float64 {
	if e.mode != scopeNone && m == e.bound {
		return e.evaluateScoped(m)
	}
	return e.evaluateFull(m)
}

// BeginSuffix implements core.ScopedEvaluator: cache activations entering
// layer layerIdx, the boundary below which m will not change.
func (e *SuffixEvaluator) BeginSuffix(m *nn.Sequential, layerIdx int) {
	e.begin(m, layerIdx, scopeSuffix, nil)
}

// BeginPrune implements core.ScopedEvaluator: cache the output of the
// Prunable layer at layerIdx. Pruning a unit zeroes exactly its output
// channel, so Evaluate masks the cached activations with the layer's
// current prune flags instead of re-running the layer — bit-identical to
// recomputation, and a revert simply un-masks (DESIGN.md §9).
func (e *SuffixEvaluator) BeginPrune(m *nn.Sequential, layerIdx int) {
	p, ok := m.Layer(layerIdx).(nn.Prunable)
	if !ok {
		panic(fmt.Sprintf("metrics: BeginPrune layer %d (%s) is not prunable", layerIdx, m.Layer(layerIdx).Name()))
	}
	e.begin(m, layerIdx+1, scopePrune, p)
}

// begin computes and caches the boundary activations of every batch.
func (e *SuffixEvaluator) begin(m *nn.Sequential, boundary int, mode scopeMode, p nn.Prunable) {
	e.EndScope()
	n := e.ds.Len()
	e.acts = e.acts[:0]
	bi := 0
	for lo := 0; lo < n; lo += e.batch {
		hi := lo + e.batch
		if hi > n {
			hi = n
		}
		e.x, e.labels = e.ds.BatchInto(lo, hi, e.x, e.labels)
		b := m.ForwardTo(boundary, e.x)
		// The boundary tensor is a loan (layer scratch, or the batch buffer
		// itself when the boundary is the input): copy it into an owned,
		// batch-keyed cache buffer.
		act := e.arena.GetIndexedLike("act", bi, b)
		act.CopyFrom(b)
		e.acts = append(e.acts, act)
		bi++
	}
	e.mode = mode
	e.bound = m
	e.boundary = boundary
	e.prunable = p
}

// EndScope implements core.ScopedEvaluator. The activation cache buffers
// are kept for the next scope.
func (e *SuffixEvaluator) EndScope() {
	if e.mode == scopeNone {
		return
	}
	e.mode = scopeNone
	e.bound = nil
	e.prunable = nil
	e.acts = e.acts[:0]
}

// evaluateScoped replays only the suffix layers on the cached boundary
// activations.
func (e *SuffixEvaluator) evaluateScoped(m *nn.Sequential) float64 {
	n := e.ds.Len()
	if n == 0 {
		return 0
	}
	correct := 0
	for bi, act := range e.acts {
		in := act
		if e.mode == scopePrune {
			masked := e.arena.GetLike("masked", act)
			masked.CopyFrom(act)
			e.maskPruned(masked)
			in = masked
		}
		out := m.ForwardFrom(e.boundary, in)
		e.preds = nn.ArgmaxInto(e.preds, out)
		labs := e.labs[bi*e.batch:]
		for i, p := range e.preds {
			if p == labs[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}

// maskPruned zeroes the channels of currently-pruned units in a cached
// boundary activation of shape (N, units, ...). A pruned unit's parameters
// are all zero, so its recomputed output channel would be exactly +0.0 —
// which is what the mask writes.
func (e *SuffixEvaluator) maskPruned(act *tensor.Tensor) {
	n, units := act.Dim(0), act.Dim(1)
	hw := act.Len() / (n * units)
	for u := 0; u < units; u++ {
		if !e.prunable.UnitPruned(u) {
			continue
		}
		for s := 0; s < n; s++ {
			ch := act.Data[(s*units+u)*hw : (s*units+u+1)*hw]
			for i := range ch {
				ch[i] = 0
			}
		}
	}
}

// evaluateFull is the unscoped path: a plain batched forward pass with
// reusable buffers, returning exactly what Accuracy returns.
func (e *SuffixEvaluator) evaluateFull(m *nn.Sequential) float64 {
	n := e.ds.Len()
	if n == 0 {
		return 0
	}
	correct := 0
	for lo := 0; lo < n; lo += e.batch {
		hi := lo + e.batch
		if hi > n {
			hi = n
		}
		e.x, e.labels = e.ds.BatchInto(lo, hi, e.x, e.labels)
		e.preds = nn.ArgmaxInto(e.preds, m.Forward(e.x, false))
		for i, p := range e.preds {
			if p == e.labels[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}
