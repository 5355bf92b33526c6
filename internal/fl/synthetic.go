package fl

import (
	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// SyntheticClient is a load-generation participant: it returns a
// deterministic pseudo-update without training a model, so tens of
// thousands of them fit in one process (a real Client carries a model
// clone and an optimizer; a SyntheticClient carries three words). The
// delta for (Seed, id, round) is a pure function of those values and the
// global vector's length, which makes load runs reproducible and lets
// tests compare an in-process federation bit-for-bit against the same
// fleet served over the wire.
type SyntheticClient struct {
	// Id is the client's participant ID.
	Id int
	// Seed decorrelates whole fleets from each other.
	Seed int64
	// Scale bounds the delta's coordinates to [-Scale, Scale); 0 means
	// 1e-3, small enough that synthetic rounds never blow up the model.
	Scale float64
	// Units is the length of the client's canned activation reports; 0
	// means 64 (the last-conv width of the MNIST-scale models).
	Units int
}

var (
	_ Participant       = (*SyntheticClient)(nil)
	_ core.ReportClient = (*SyntheticClient)(nil)
)

// ID implements Participant.
func (c *SyntheticClient) ID() int { return c.Id }

// LocalUpdate implements Participant: a seeded pseudo-random delta sized
// to the incoming global vector, written over a recycled vector. It is safe
// for concurrent use — each call holds its own RNG for as long as it runs —
// so one synthetic client can serve overlapping requests in a load test.
func (c *SyntheticClient) LocalUpdate(global []float64, round int) []float64 {
	scale := c.Scale
	if scale == 0 {
		scale = 1e-3
	}
	rng := participantRNG(uint64(c.Seed), uint64(c.Id), uint64(round))
	defer participantRNGs.Put(rng)
	d := wire.GetFloat64s(len(global))
	for i := range d {
		// No fused multiply-add on arm64 (make fusion-check): the inner
		// conversion keeps Float64's inlined scaling multiply out of 2·r,
		// which the compiler writes r+r, and the outer one keeps 2·r out of
		// the subtraction. 2·r is exact, so neither changes a bit.
		d[i] = scale * (float64(2*float64(rng.Float64())) - 1)
	}
	return d
}

// syntheticDomainActs separates the report stream from the update stream,
// so asking for ranks never perturbs the deltas a load test compares
// bit-for-bit.
const syntheticDomainActs = 0x5f_ac75

// units returns the canned report width.
func (c *SyntheticClient) units() int {
	if c.Units > 0 {
		return c.Units
	}
	return 64
}

// activations is the client's canned activation vector, a pure function
// of (Seed, Id, layerIdx), so a fleet of synthetic clients exercises the
// defense's report path without models.
func (c *SyntheticClient) activations(layerIdx int) []float64 {
	rng := participantRNG(syntheticDomainActs, uint64(c.Seed), uint64(c.Id), uint64(layerIdx))
	defer participantRNGs.Put(rng)
	acts := make([]float64, c.units())
	for i := range acts {
		acts[i] = rng.Float64()
	}
	return acts
}

// RankReport implements core.ReportClient from the canned activations. The
// model argument is ignored and may be nil.
func (c *SyntheticClient) RankReport(_ *nn.Sequential, layerIdx int) []int {
	return core.RanksFromActivations(c.activations(layerIdx))
}

// VoteReport implements core.ReportClient from the canned activations. The
// model argument is ignored and may be nil.
func (c *SyntheticClient) VoteReport(_ *nn.Sequential, layerIdx int, p float64) []bool {
	return core.VotesFromActivations(c.activations(layerIdx), p)
}
