package fl

import (
	"math/bits"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// SyntheticClient is a load-generation participant: it returns a
// deterministic pseudo-update without training a model, so tens of
// thousands of them fit in one process (a real Client carries a model
// clone and an optimizer; a SyntheticClient carries four words). The
// delta for (Seed, id, round) is a pure function of those values and the
// global vector's length, which makes load runs reproducible and lets
// tests compare an in-process federation bit-for-bit against the same
// fleet served over the wire. Its values come from a counter-based stream
// (syntheticCoord): coordinate i is a fixed mix of the call's key and i, so
// a call holds no state and costs one to two nanoseconds per coordinate,
// and a load run measures the server and the wire rather than its own
// participants.
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

// LocalUpdate implements Participant: a pseudo-random delta sized to the
// incoming global vector, coordinate i being Scale·syntheticCoord(key, i)
// for key = streamKey(Seed, Id, round), written over a recycled vector. It
// holds no state, so one synthetic client can serve overlapping requests in
// a load test.
func (c *SyntheticClient) LocalUpdate(global []float64, round int) []float64 {
	scale := c.Scale
	if scale == 0 {
		scale = 1e-3
	}
	key := streamKey(uint64(c.Seed), uint64(c.Id), uint64(round))
	d := wire.GetFloat64s(len(global))
	for i := range d {
		d[i] = scale * syntheticCoord(key, i)
	}
	return d
}

// syntheticCoord is coordinate i of the stream keyed by key: wyrand's mix of
// the counter z = key + (i+1)·γ — the high and low words of the 128-bit
// product z·(z ⊕ c), xored — with its top 53 bits read as a signed integer
// and scaled by 2⁻⁵², which maps them exactly onto [-1, 1). Every step is
// integer arithmetic or an exact product, so the value has the same bits
// on every platform.
func syntheticCoord(key uint64, i int) float64 {
	z := key + uint64(i+1)*0xa0761d6478bd642f
	hi, lo := bits.Mul64(z, z^0xe7037ed1a0b428db)
	return float64(int64(hi^lo)>>11) * 0x1p-52
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
// of (Seed, Id, layerIdx) drawn from the update's stream under its own
// domain, so a fleet of synthetic clients exercises the defense's report
// path without models.
func (c *SyntheticClient) activations(layerIdx int) []float64 {
	key := streamKey(syntheticDomainActs, uint64(c.Seed), uint64(c.Id), uint64(layerIdx))
	acts := make([]float64, c.units())
	for i := range acts {
		acts[i] = syntheticCoord(key, i)
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
