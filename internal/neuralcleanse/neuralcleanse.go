// Package neuralcleanse implements the Neural Cleanse defense (Wang et
// al., S&P 2019), the comparison baseline of the paper's Table IV. For
// every candidate target label it reverse-engineers the smallest input
// trigger (mask + pattern) that flips arbitrary inputs to that label,
// detects backdoored labels as L1-norm outliers via the median absolute
// deviation, and mitigates by pruning the neurons most activated by the
// reconstructed trigger.
//
// Per the paper's comparison protocol, the optimization consumes only the
// held-out test split (client training data is private) and uses an L1
// ("Lasso") regularizer on the mask.
package neuralcleanse

import (
	"fmt"
	"math"
	"sort"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// Config parameterizes trigger reverse-engineering.
type Config struct {
	// Steps of projected gradient descent per candidate label.
	Steps int
	// Batch is the minibatch size drawn (round-robin) from the input data.
	Batch int
	// LR is the optimization learning rate.
	LR float64
	// Lambda is the Lasso (L1) coefficient on the mask.
	Lambda float64
}

// DefaultConfig returns a configuration scaled to the reproduction's
// synthetic tasks (the paper's comparison used 1000 steps × 1000-sample
// minibatches on GPU hardware; this is the CPU-budget equivalent).
func DefaultConfig() Config {
	return Config{Steps: 120, Batch: 40, LR: 0.2, Lambda: 0.02}
}

// ReversedTrigger is the optimization result for one candidate label.
type ReversedTrigger struct {
	Label int
	// Mask has one value in [0,1] per spatial position (H·W); Pattern has
	// one value in [0,1] per input element (C·H·W). A triggered input is
	// (1−mask)·x + mask·pattern, channel-sharing the mask.
	Mask, Pattern []float64
	// MaskNorm is the L1 norm of the mask, the outlier statistic.
	MaskNorm float64
	// FlipRate is the fraction of optimization inputs classified as Label
	// after applying the reversed trigger.
	FlipRate float64
}

// ReverseAll reverse-engineers a trigger for every label, all on one clone
// of m with its BatchNorm statistics frozen; m is not mutated. Nothing
// carries over from one label to the next: the parameters and running
// statistics stay fixed, each step zeroes the gradients, and a pass
// overwrites whatever the previous one left in the layers' buffers.
func ReverseAll(m *nn.Sequential, data *dataset.Dataset, cfg Config) []ReversedTrigger {
	if cfg.Steps <= 0 || cfg.Batch <= 0 || cfg.LR <= 0 {
		panic(fmt.Sprintf("neuralcleanse: bad config %+v", cfg))
	}
	model := m.Clone()
	nn.FreezeStats(model)
	out := make([]ReversedTrigger, data.Classes)
	for l := range out {
		out[l] = reverseTrigger(model, data, l, cfg)
	}
	return out
}

// reverseTrigger optimizes a minimal trigger flipping data to label on
// model, a working model with frozen statistics whose parameters it only
// reads.
func reverseTrigger(model *nn.Sequential, data *dataset.Dataset, label int, cfg Config) ReversedTrigger {
	s := data.Shape
	hw := s.H * s.W
	mask := make([]float64, hw)
	pattern := make([]float64, s.Elems())
	for i := range mask {
		mask[i] = 0.1
	}
	for i := range pattern {
		pattern[i] = 0.5
	}
	labels := make([]int, cfg.Batch)
	for i := range labels {
		labels[i] = label
	}
	pos := 0
	for step := 0; step < cfg.Steps; step++ {
		// Assemble the batch x' = (1−m)x + m·p.
		x := tensor.New(cfg.Batch, s.C, s.H, s.W)
		raw := make([][]float64, cfg.Batch)
		for b := 0; b < cfg.Batch; b++ {
			sm := data.Samples[pos%data.Len()]
			pos++
			raw[b] = sm.X
			for c := 0; c < s.C; c++ {
				for i := 0; i < hw; i++ {
					el := c*hw + i
					x.Data[b*s.Elems()+el] = (1-mask[i])*sm.X[el] + mask[i]*pattern[el]
				}
			}
		}
		model.ZeroGrads()
		logits := model.Forward(x, true)
		_, dlogits := nn.SoftmaxXent(logits, labels)
		dx := model.Backward(dlogits)
		// Gradients w.r.t. mask and pattern, accumulated over the batch.
		gMask := make([]float64, hw)
		gPat := make([]float64, s.Elems())
		for b := 0; b < cfg.Batch; b++ {
			for c := 0; c < s.C; c++ {
				for i := 0; i < hw; i++ {
					el := c*hw + i
					g := dx.Data[b*s.Elems()+el]
					gMask[i] += g * (pattern[el] - raw[b][el])
					gPat[el] += g * mask[i]
				}
			}
		}
		// Projected gradient step with Lasso on the mask.
		for i := range mask {
			mask[i] -= cfg.LR * (gMask[i] + cfg.Lambda*sign(mask[i]))
			mask[i] = clamp01(mask[i])
		}
		for el := range pattern {
			pattern[el] -= cfg.LR * gPat[el]
			pattern[el] = clamp01(pattern[el])
		}
	}
	out := ReversedTrigger{Label: label, Mask: mask, Pattern: pattern}
	for _, v := range mask {
		out.MaskNorm += math.Abs(v)
	}
	out.FlipRate = flipRate(model, data, label, mask, pattern, cfg.Batch)
	return out
}

// DetectOutliersMAD flags labels whose reversed-trigger mask norm is an
// anomaly: more than threshold median-absolute-deviations *below* the
// median (backdoored labels admit unusually small triggers). Neural
// Cleanse uses threshold 2 with the MAD consistency constant 1.4826.
func DetectOutliersMAD(triggers []ReversedTrigger, threshold float64) []int {
	norms := make([]float64, len(triggers))
	for i, t := range triggers {
		norms[i] = t.MaskNorm
	}
	med := median(norms)
	devs := make([]float64, len(norms))
	for i, v := range norms {
		devs[i] = math.Abs(v - med)
	}
	mad := 1.4826 * median(devs)
	if mad == 0 {
		return nil
	}
	var out []int
	for i, v := range norms {
		if (med-v)/mad > threshold {
			out = append(out, i)
		}
	}
	return out
}

// Mitigate removes the backdoor indicated by a reversed trigger: neurons
// of the model's last convolutional layer are ranked by how much more they
// activate on trigger-stamped data than on clean data, and pruned in that
// order until the evaluator drops below minAcc. m is modified in place.
// It returns the number of pruned neurons.
func Mitigate(m *nn.Sequential, trig ReversedTrigger, data *dataset.Dataset, eval core.ScopedEvaluator, minAcc float64) int {
	li := m.LastConvIndex()
	if li < 0 {
		panic("neuralcleanse: model has no conv layer")
	}
	clean := metrics.LocalActivations(m, li, data, 0)
	stamped := stampDataset(data, trig)
	triggered := metrics.LocalActivations(m, li, stamped, 0)
	diff := make([]float64, len(clean))
	for i := range diff {
		diff[i] = triggered[i] - clean[i]
	}
	order := argsortDesc(diff)
	res := core.PruneToThreshold(m, li, order, eval, minAcc, 0)
	return len(res.Pruned)
}

// stampDataset applies a reversed trigger to every sample of ds.
func stampDataset(ds *dataset.Dataset, trig ReversedTrigger) *dataset.Dataset {
	s := ds.Shape
	hw := s.H * s.W
	out := &dataset.Dataset{Shape: s, Classes: ds.Classes}
	for _, sm := range ds.Samples {
		p := sm.Clone()
		for c := 0; c < s.C; c++ {
			for i := 0; i < hw; i++ {
				el := c*hw + i
				p.X[el] = (1-trig.Mask[i])*p.X[el] + trig.Mask[i]*trig.Pattern[el]
			}
		}
		out.Samples = append(out.Samples, p)
	}
	return out
}

// flipRate measures how often the reversed trigger flips data to label.
func flipRate(m *nn.Sequential, data *dataset.Dataset, label int, mask, pattern []float64, batch int) float64 {
	stamped := stampDataset(data, ReversedTrigger{Mask: mask, Pattern: pattern})
	flipped := 0
	for lo := 0; lo < stamped.Len(); lo += batch {
		hi := lo + batch
		if hi > stamped.Len() {
			hi = stamped.Len()
		}
		x, _ := stamped.Batch(lo, hi)
		for _, p := range nn.Argmax(m.Forward(x, false)) {
			if p == label {
				flipped++
			}
		}
	}
	return float64(flipped) / float64(stamped.Len())
}

func sign(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func argsortDesc(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	return idx
}
