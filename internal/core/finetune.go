package core

import "github.com/fedcleanse/fedcleanse/internal/nn"

// Tuner runs federated fine-tuning rounds over the client population,
// updating m in place. internal/fl.Server implements it; injecting the
// interface here keeps the defense package independent of the simulator.
type Tuner interface {
	FineTune(m *nn.Sequential, rounds int)
}

// FineTuneResult reports the outcome of the fine-tuning phase.
type FineTuneResult struct {
	// Rounds actually executed.
	Rounds int
	// Accuracies holds the evaluator score after each round, preceded by
	// the pre-fine-tuning score at index 0.
	Accuracies []float64
}

// FineTune runs up to maxRounds single-round fine-tuning steps (§IV-B),
// stopping early once the evaluator has not improved for patience
// consecutive rounds ("the server can observe the updated global model's
// performance and stop when the accuracy does not improve any further").
// Prune masks on m survive aggregation because the model re-applies them
// on every parameter installation. acc is eval's score of m as it stands,
// which the caller already holds (the pruning sweep ends on it), so
// fine-tuning starts without evaluating m again.
func FineTune(m *nn.Sequential, acc float64, tuner Tuner, maxRounds, patience int, eval ScopedEvaluator) FineTuneResult {
	if patience <= 0 {
		patience = 2
	}
	res := FineTuneResult{Accuracies: []float64{acc}}
	best := res.Accuracies[0]
	stale := 0
	for r := 0; r < maxRounds; r++ {
		tuner.FineTune(m, 1)
		acc := eval.Evaluate(m)
		res.Accuracies = append(res.Accuracies, acc)
		res.Rounds++
		if acc > best+1e-9 {
			best = acc
			stale = 0
		} else {
			stale++
			if stale >= patience {
				break
			}
		}
	}
	return res
}
