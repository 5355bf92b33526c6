// Package core implements the paper's contribution: the post-training
// backdoor-cleansing defense for federated learning. It consists of
//
//  1. federated pruning (§IV-A) in two flavors — Rank Aggregation-based
//     Pruning (RAP) and Majority Voting-based Pruning (MVP) — which remove
//     dormant "backdoor neurons" from a target layer using only rank/vote
//     reports from clients (never raw data or activations),
//  2. an optional federated fine-tuning phase (§IV-B) that recovers benign
//     accuracy lost to pruning, and
//  3. adjusting extreme weights (AW, §IV-C), which zeroes last-conv-layer
//     weights outside μ ± Δ·σ with Δ decreased until a validation-accuracy
//     guard would be violated.
//
// RunPipeline composes the three steps into the paper's Algorithm 1.
package core

import (
	"fmt"
	"sort"

	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
)

// RanksFromActivations converts a client's recorded per-neuron average
// activations into the rank report of the RAP scheme: ranks[i] is the
// 1-based position of neuron i when neurons are sorted by decreasing
// activation (rank 1 = most active, rank P_L = most dormant). Ties are
// broken by neuron index for determinism.
//
// acts is the float64 recording or its int8 codes (metrics.QuantActs.Q,
// DESIGN.md §9): a participant reporting at int8 ranks its own codes. The
// dequantization map a = zero + scale·(q+128) is monotonically increasing
// (scale ≥ 0), so ranking the codes gives exactly the ranks of the
// dequantized activations, without materializing a float64 vector.
func RanksFromActivations[A int8 | float64](acts []A) []int {
	order := argsortDesc(acts)
	ranks := make([]int, len(acts))
	for pos, unit := range order {
		ranks[unit] = pos + 1
	}
	return ranks
}

// AggregateRanks implements the server side of RAP: the mean rank position
// R_i of every neuron over all client reports. Every report must hold one
// rank in [1, P_L] per neuron (it panics otherwise); one that is not a
// permutation (the §VI-B rank manipulator's) is averaged as given.
func AggregateRanks(reports [][]int) []float64 {
	if len(reports) == 0 {
		panic("core: AggregateRanks with no reports")
	}
	units := len(reports[0])
	mean := make([]float64, units)
	for _, r := range reports {
		if len(r) != units {
			panic(fmt.Sprintf("core: rank report length %d, want %d", len(r), units))
		}
		for i, v := range r {
			if v < 1 || v > units {
				panic(fmt.Sprintf("core: rank %d outside [1,%d]", v, units))
			}
			mean[i] += float64(v)
		}
	}
	inv := 1.0 / float64(len(reports))
	for i := range mean {
		mean[i] *= inv
	}
	return mean
}

// PruneOrderFromRanks turns aggregated mean ranks into the global pruning
// sequence: most-dormant neurons (largest mean rank) first.
func PruneOrderFromRanks(meanRanks []float64) []int {
	return argsortDesc(meanRanks)
}

// VotesFromActivations converts a client's activations into the MVP vote
// report for pruning rate p: exactly ⌊p·P_L⌋ of the least-active neurons
// receive a prune vote (true). Like RanksFromActivations it takes the
// float64 recording or its int8 codes, with the same result.
func VotesFromActivations[A int8 | float64](acts []A, p float64) []bool {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("core: pruning rate %g outside [0,1]", p))
	}
	k := int(p * float64(len(acts)))
	votes := make([]bool, len(acts))
	order := argsortDesc(acts) // most active first
	for i := len(order) - k; i < len(order); i++ {
		votes[order[i]] = true
	}
	return votes
}

// AggregateVotes implements the server side of MVP: the fraction of clients
// voting to prune each neuron.
func AggregateVotes(reports [][]bool) []float64 {
	if len(reports) == 0 {
		panic("core: AggregateVotes with no reports")
	}
	units := len(reports[0])
	share := make([]float64, units)
	for _, r := range reports {
		if len(r) != units {
			panic(fmt.Sprintf("core: vote report length %d, want %d", len(r), units))
		}
		for i, v := range r {
			if v {
				share[i]++
			}
		}
	}
	inv := 1.0 / float64(len(reports))
	for i := range share {
		share[i] *= inv
	}
	return share
}

// PruneOrderFromVotes turns aggregated vote shares into the global pruning
// sequence: highest prune-vote share first. Ties are broken by neuron
// index.
func PruneOrderFromVotes(share []float64) []int {
	return argsortDesc(share)
}

// argsortDesc returns the indices of xs sorted by decreasing value, ties
// broken by ascending index.
func argsortDesc[A int8 | float64](xs []A) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	return idx
}

// ScopedEvaluator scores candidate models for the defense's
// mutate-then-evaluate loops. Beyond plain evaluation it accepts mutation
// scopes: a loop that only mutates layers ≥ li (or only prunes units of
// layer li) announces so before it starts, which lets an implementation
// cache the forward pass up to the mutation boundary and replay only the
// suffix per step (metrics.SuffixEvaluator). The plain function adapter
// Evaluator ignores scopes and evaluates the full network every time;
// both must return bit-identical scores.
type ScopedEvaluator interface {
	// Evaluate scores the model (typically validation accuracy).
	Evaluate(m *nn.Sequential) float64
	// BeginSuffix declares that until EndScope every mutation of m is
	// confined to layers ≥ layerIdx, so activations entering layerIdx are
	// invariant.
	BeginSuffix(m *nn.Sequential, layerIdx int)
	// BeginPrune declares that until EndScope the only mutations of m are
	// unit prunes (and their snapshot reverts) of the Prunable layer at
	// layerIdx via PruneModelUnit. Pruning a unit zeroes exactly its output
	// channel, so even layerIdx itself need not be re-run: its cached
	// unpruned output with currently-pruned channels zeroed is bit-identical
	// to recomputing it (see DESIGN.md §9).
	BeginPrune(m *nn.Sequential, layerIdx int)
	// EndScope leaves the current scope; the evaluator falls back to full
	// forwards until the next Begin call.
	EndScope()
}

// Evaluator adapts a plain scoring function to ScopedEvaluator with no-op
// scopes; the loops then evaluate via full forward passes. It is
// metrics.Accuracy over the server's validation set: the server's own
// validation accuracy is the only guard the defense has (Algorithm 1).
type Evaluator func(m *nn.Sequential) float64

// Evaluate implements ScopedEvaluator.
func (e Evaluator) Evaluate(m *nn.Sequential) float64 { return e(m) }

// BeginSuffix implements ScopedEvaluator as a no-op.
func (e Evaluator) BeginSuffix(*nn.Sequential, int) {}

// BeginPrune implements ScopedEvaluator as a no-op.
func (e Evaluator) BeginPrune(*nn.Sequential, int) {}

// EndScope implements ScopedEvaluator as a no-op.
func (e Evaluator) EndScope() {}

// PruneStep records the model state after one cumulative prune.
type PruneStep struct {
	// Unit is the neuron pruned at this step.
	Unit int
	// Accuracy is the evaluator score after the prune.
	Accuracy float64
}

// PruneResult reports the outcome of a threshold-guarded pruning run.
type PruneResult struct {
	// Pruned lists the units that remain pruned in the returned model.
	Pruned []int
	// Steps traces every attempted prune including a final rejected one.
	Steps []PruneStep
	// BaselineAccuracy is the evaluator score before any pruning.
	BaselineAccuracy float64
	// FinalAccuracy is the evaluator score of the returned model.
	FinalAccuracy float64
}

// PruneToThreshold prunes units of layer layerIdx of m in the given global
// order (Algorithm 1 lines 7-13), stopping — and reverting the offending
// prune — as soon as the evaluator drops below minAcc, and always leaves at
// least one unit alive. m is modified in place.
//
// The loop announces a prune scope so cached evaluators replay only the
// suffix per step, and reverts a violating prune via a per-unit snapshot
// (Sequential.CaptureUnit/RestoreUnit) instead of cloning the model.
func PruneToThreshold(m *nn.Sequential, layerIdx int, order []int, eval ScopedEvaluator, minAcc float64) PruneResult {
	p, ok := m.Layer(layerIdx).(nn.Prunable)
	if !ok {
		panic("core: PruneToThreshold target layer is not prunable")
	}
	eval.BeginPrune(m, layerIdx)
	defer eval.EndScope()
	res := PruneResult{BaselineAccuracy: eval.Evaluate(m)}
	res.FinalAccuracy = res.BaselineAccuracy
	limit := len(order) - 1 // always keep at least one unit
	var snap nn.UnitSnapshot
	for _, unit := range order {
		if len(res.Pruned) >= limit {
			break
		}
		if p.UnitPruned(unit) {
			continue
		}
		snap = m.CaptureUnit(layerIdx, unit, snap)
		m.PruneModelUnit(layerIdx, unit)
		acc := eval.Evaluate(m)
		res.Steps = append(res.Steps, PruneStep{Unit: unit, Accuracy: acc})
		if acc < minAcc {
			// Revert the violating prune and stop (the paper stops pruning
			// before the test-accuracy drop).
			m.RestoreUnit(snap)
			break
		}
		res.Pruned = append(res.Pruned, unit)
		res.FinalAccuracy = acc
	}
	obs.M.DefensePrunedUnits.Add(uint64(len(res.Pruned)))
	return res
}

// PruneSweep prunes every unit of layer layerIdx in the given order without
// any threshold, recording the score of each evaluator after each prune.
// It is the instrument behind the paper's pruning curves (Fig. 5): pass
// benign accuracy and attack success rate as the two evaluators. m is
// modified in place (fully pruned on return); callers pass a clone.
func PruneSweep(m *nn.Sequential, layerIdx int, order []int, evals ...ScopedEvaluator) [][]float64 {
	for _, e := range evals {
		e.BeginPrune(m, layerIdx)
		defer e.EndScope()
	}
	curves := make([][]float64, len(evals))
	for i, e := range evals {
		curves[i] = append(curves[i], e.Evaluate(m)) // point 0: unpruned
	}
	for _, unit := range order {
		m.PruneModelUnit(layerIdx, unit)
		for i, e := range evals {
			curves[i] = append(curves[i], e.Evaluate(m))
		}
	}
	return curves
}
