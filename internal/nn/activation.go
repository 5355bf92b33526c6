package nn

import (
	"fmt"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// AccumulateUnitActivations adds per-unit activation sums from a batch into
// sums and returns the number of per-unit observations added (N·spatial).
// sums divided by the count is the aᵢ statistic of the paper's federated
// pruning step (§IV-A): each unit's mean *post-activation* output — ReLU is
// applied during the reduction, whether act was captured before or after
// the network's own ReLU layer. Clients with multiple batches use it to
// build exact dataset-wide means without holding all activations in memory.
//
// act must have shape (N, units) for dense layers or (N, units, H, W) for
// convolutional layers.
func AccumulateUnitActivations(act *tensor.Tensor, units int, sums []float64) int {
	var spatial int
	switch act.Rank() {
	case 2:
		spatial = 1
	case 4:
		spatial = act.Dim(2) * act.Dim(3)
	default:
		panic(fmt.Sprintf("nn: AccumulateUnitActivations rank %d, want 2 or 4", act.Rank()))
	}
	if act.Dim(1) != units || len(sums) != units {
		panic(fmt.Sprintf("nn: AccumulateUnitActivations units mismatch: act %d, sums %d, want %d", act.Dim(1), len(sums), units))
	}
	n := act.Dim(0)
	for s := 0; s < n; s++ {
		for u := 0; u < units; u++ {
			base := (s*units + u) * spatial
			sum := 0.0
			for i := 0; i < spatial; i++ {
				if v := act.Data[base+i]; v > 0 {
					sum += v
				}
			}
			sums[u] += sum
		}
	}
	return n * spatial
}
