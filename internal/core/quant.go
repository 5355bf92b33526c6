package core

import (
	"fmt"
	"sort"

	"github.com/fedcleanse/fedcleanse/internal/nn"
)

// Server-side prune-order construction over quantized activation reports
// (DESIGN.md §14). When clients ship int8-quantized activation payloads
// instead of pre-computed rank/vote vectors, the server reconstructs the
// reports here. Ranking operates directly on the int8 codes: the affine
// dequantization map a = zero + scale·(q+128) is monotonically increasing
// (scale ≥ 0), so sorting by code — with the same ascending-index tie
// break — yields exactly the order of the dequantized activations. These
// constructors are therefore bit-identical to dequantize-then-
// RanksFromActivations, without materializing a float64 vector.

// ActivationReporter is implemented by report clients that can expose the
// recorded per-neuron average activation vector itself, enabling
// server-side prune-order construction from compact activation payloads:
// a transport host answers a rank request of a participant reporting at
// int8 with these activations, quantized, which the receiver ranks
// (RanksFromQuantized) exactly as the participant does.
type ActivationReporter interface {
	// ActivationReport returns the client's recorded mean activation per
	// unit of the Prunable layer at layerIdx.
	ActivationReport(m *nn.Sequential, layerIdx int) []float64
}

// RanksFromQuantized converts an int8-quantized activation vector into the
// RAP rank report: ranks[i] is the 1-based position of neuron i sorted by
// decreasing code (rank 1 = most active). Ties break by neuron index,
// matching RanksFromActivations over the dequantized values exactly.
func RanksFromQuantized(q []int8) []int {
	order := argsortDescInt8(q)
	ranks := make([]int, len(q))
	for pos, unit := range order {
		ranks[unit] = pos + 1
	}
	return ranks
}

// VotesFromQuantized converts an int8-quantized activation vector into the
// MVP vote report for pruning rate p: exactly ⌊p·P_L⌋ of the lowest-code
// (least active) neurons receive a prune vote, bit-identical to
// VotesFromActivations over the dequantized values.
func VotesFromQuantized(q []int8, p float64) []bool {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("core: pruning rate %g outside [0,1]", p))
	}
	k := int(p * float64(len(q)))
	votes := make([]bool, len(q))
	order := argsortDescInt8(q) // most active first
	for i := len(order) - k; i < len(order); i++ {
		votes[order[i]] = true
	}
	return votes
}

// argsortDescInt8 is argsortDesc over int8 codes: indices sorted by
// decreasing value, ties broken by ascending index.
func argsortDescInt8(q []int8) []int {
	idx := make([]int, len(q))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return q[idx[a]] > q[idx[b]] })
	return idx
}
