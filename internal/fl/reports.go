package fl

import (
	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Honest defense participation: clients record true average activations on
// their local shard and derive rank/vote reports from them (§IV-A). The
// raw activations never leave the client: a report is ranks or votes.
//
// With SetReportQuant(metrics.ReportInt8) the recorded vector passes
// through the affine int8 quantizer before ranking or voting, and the
// participant ranks or votes on the codes itself (DESIGN.md §14).

var (
	_ core.ReportClient = (*Client)(nil)
	_ core.ReportClient = (*Attacker)(nil)
)

// SetReportQuant selects the precision of the client's activation reports.
func (c *Client) SetReportQuant(q metrics.ReportQuant) { c.quant = q }

// activationReport is the recorded mean activation per unit of the layer,
// at float64 precision; ranksAt and votesAt quantize it when the client
// reports at int8.
func (c *Client) activationReport(m *nn.Sequential, layerIdx int) []float64 {
	r := borrowAt(c.replicas, m)
	defer c.replicas.Put(r)
	return metrics.LocalActivations(r.Model, layerIdx, c.data, 0)
}

// RankReport implements core.ReportClient.
func (c *Client) RankReport(m *nn.Sequential, layerIdx int) []int {
	return ranksAt(c.activationReport(m, layerIdx), c.quant)
}

// VoteReport implements core.ReportClient.
func (c *Client) VoteReport(m *nn.Sequential, layerIdx int, p float64) []bool {
	return votesAt(c.activationReport(m, layerIdx), p, c.quant)
}

// borrowAt borrows a working model from replicas holding m's parameters: a
// report is LocalUpdate's kind of call, a function of the global parameters
// and the participant's data, and m is the collection's shared, read-only
// model (core.ReportClient). The copy carries none of m's prune masks and
// needs none: a pruned unit's parameters are zero in m, so they are zero in
// the copy, and the forward passes agree. The caller puts it back.
func borrowAt(replicas *nn.Replicas, m *nn.Sequential) *nn.Replica {
	r := replicas.Get()
	global := flatParams(m)
	r.Model.SetParamsVector(global)
	wire.PutFloat64s(global)
	return r
}

// ranksAt derives a rank report from recorded activations at the given
// precision.
func ranksAt(acts []float64, q metrics.ReportQuant) []int {
	if q == metrics.ReportInt8 {
		return core.RanksFromActivations(metrics.QuantizeActivations(acts).Q)
	}
	return core.RanksFromActivations(acts)
}

// votesAt derives a vote report from recorded activations at the given
// precision.
func votesAt(acts []float64, p float64, q metrics.ReportQuant) []bool {
	if q == metrics.ReportInt8 {
		return core.VotesFromActivations(metrics.QuantizeActivations(acts).Q, p)
	}
	return core.VotesFromActivations(acts, p)
}

// Adaptive attacker reporting (§VI-B). With no flags set the attacker
// reports honestly from its clean shard, hiding among benign clients.

// AttackerDefenseBehavior toggles the discussion-section adaptive attacks
// against the defense itself.
type AttackerDefenseBehavior struct {
	// ManipulateRanks is §VI-B Attack 1: the attacker ranks neurons by the
	// maximum of their clean and triggered activations so backdoor neurons
	// look essential and survive pruning.
	ManipulateRanks bool
}

// SetDefenseBehavior installs the adaptive reporting behavior.
func (a *Attacker) SetDefenseBehavior(b AttackerDefenseBehavior) { a.defense = b }

// attackActivations returns activations that make trigger-sensitive
// neurons look as active as benign-essential ones: the element-wise max of
// clean-shard activations and fully-triggered-shard activations, both
// recorded on one borrowed working model.
func (a *Attacker) attackActivations(m *nn.Sequential, layerIdx int) []float64 {
	clean := metrics.LocalActivations(m, layerIdx, a.clean, 0)
	triggered := &dataset.Dataset{Shape: a.clean.Shape, Classes: a.clean.Classes}
	for _, s := range a.clean.Samples {
		p := s.Clone()
		a.Poison.Trigger.Apply(p.X, a.clean.Shape)
		triggered.Samples = append(triggered.Samples, p)
	}
	trig := metrics.LocalActivations(m, layerIdx, triggered, 0)
	out := make([]float64, len(clean))
	for i := range out {
		out[i] = clean[i]
		if trig[i] > out[i] {
			out[i] = trig[i]
		}
	}
	return out
}

// SetReportQuant selects the precision of the attacker's reports.
func (a *Attacker) SetReportQuant(q metrics.ReportQuant) { a.quant = q }

// activationReport is the attacker's recorded activations: manipulated
// when the adaptive attack is on, honest clean-shard activations otherwise.
func (a *Attacker) activationReport(m *nn.Sequential, layerIdx int) []float64 {
	r := borrowAt(a.replicas, m)
	defer a.replicas.Put(r)
	if a.defense.ManipulateRanks {
		return a.attackActivations(r.Model, layerIdx)
	}
	return metrics.LocalActivations(r.Model, layerIdx, a.clean, 0)
}

// RankReport implements core.ReportClient for the attacker.
func (a *Attacker) RankReport(m *nn.Sequential, layerIdx int) []int {
	return ranksAt(a.activationReport(m, layerIdx), a.quant)
}

// VoteReport implements core.ReportClient for the attacker.
func (a *Attacker) VoteReport(m *nn.Sequential, layerIdx int, p float64) []bool {
	return votesAt(a.activationReport(m, layerIdx), p, a.quant)
}

// ReportClients adapts a participant slice to the defense's interface.
// Participants that do not implement core.ReportClient are skipped.
func ReportClients(parts []Participant) []core.ReportClient {
	out := make([]core.ReportClient, 0, len(parts))
	for _, p := range parts {
		if rc, ok := p.(core.ReportClient); ok {
			out = append(out, rc)
		}
	}
	return out
}
