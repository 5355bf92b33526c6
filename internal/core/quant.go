package core

import "github.com/fedcleanse/fedcleanse/internal/nn"

// ActivationReporter is implemented by report clients that can expose the
// recorded per-neuron average activation vector itself, enabling
// server-side prune-order construction from compact activation payloads:
// a transport host answers a rank request of a participant reporting at
// int8 with these activations, quantized, which the receiver ranks
// (RanksFromActivations over the codes) exactly as the participant does.
type ActivationReporter interface {
	// ActivationReport returns the client's recorded mean activation per
	// unit of the Prunable layer at layerIdx.
	ActivationReport(m *nn.Sequential, layerIdx int) []float64
}
