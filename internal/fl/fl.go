// Package fl simulates the paper's federated-learning setting: a server
// holding a global model, benign clients training on non-IID local shards,
// and malicious clients mounting backdoor attacks (BadNets pixel patterns
// with model-replacement scaling, and the Distributed Backdoor Attack).
//
// The aggregation rule is the paper's simplified FedAvg (§III-A): every
// selected client contributes an equal-weight update delta,
//
//	w_{t+1} = w_t + (1/N) Σ Δw^i_{t+1}.
//
// Alternative Byzantine-robust rules (Krum, trimmed mean, ...) plug in
// through the Aggregator interface and live in internal/robust.
package fl

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Config bundles the federated training hyperparameters.
type Config struct {
	// Rounds of federated aggregation.
	Rounds int
	// SelectPerRound clients participate in each round; 0 means all.
	SelectPerRound int
	// LocalEpochs each client trains per round.
	LocalEpochs int
	// BatchSize of local SGD.
	BatchSize int
	// LR, Momentum, WeightDecay configure each client's local optimizer.
	LR, Momentum, WeightDecay float64
	// Quorum is the minimum fraction (0,1] of the selected cohort whose
	// updates must arrive for the round's aggregate to be applied; a
	// round below quorum is recorded but leaves the model untouched. 0
	// keeps the historical behavior of applying with any single update.
	// A rule's CohortMinimum raises the quorum to its minimum.
	Quorum float64
	// RoundTimeout bounds one round's update collection; when it expires
	// the round context is cancelled, which aborts in-flight remote calls
	// and records the stragglers as dropouts. 0 means no deadline
	// (in-process participants cannot be cancelled either way).
	RoundTimeout time.Duration
	// Streaming bounds the round's window (DESIGN.md §6): StreamWindow
	// clients train, and O(StreamWindow) un-folded deltas wait, at a time —
	// bit-identical to the same round without it. Whether a round folds is
	// the rule's (StreamingAggregator); under a rule that cannot, the round
	// runs unbounded and counts fl_stream_fallbacks_total.
	Streaming bool
	// Shards is ignored: a round folds on its own goroutine. It
	// stays only so existing callers compile.
	Shards int
	// StreamWindow bounds how many clients a round under Streaming trains
	// concurrently (and therefore how many un-folded updates exist at
	// once); 0 means twice the parallel worker count.
	StreamWindow int
}

// withDefaults fills unset fields with the values used throughout the
// paper-scale experiments.
func (c Config) withDefaults() Config {
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 20
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	return c
}

// Participant is one federated client, benign or malicious.
type Participant interface {
	// ID identifies the client.
	ID() int
	// LocalUpdate trains on the client's data starting from the global
	// parameter vector and returns the update delta (x_i − w_t). global is
	// the caller's — shared by the whole cohort in process, and behind a
	// wire handler by every request with the same bytes — so it must not be
	// modified, nor retained past the call.
	//
	// The returned slice goes the other way (DESIGN.md §6): it belongs to
	// the caller from the moment it is returned, so the participant must not
	// keep, reuse or hand out a second time what it returned, and the caller
	// may recycle it (wire.PutFloat64s) once nothing can read it any more —
	// the round drivers do, once the mean fold has added it or, on the
	// collect-all fold, after the aggregate is applied. The same holds for
	// TryLocalUpdate.
	LocalUpdate(global []float64, round int) []float64
}

// FallibleParticipant is implemented by participants whose local update
// can fail — remote stubs over a real network (transport.RemoteClient).
// Round drivers prefer TryLocalUpdate over LocalUpdate when available:
// an error is recorded as that client dropping out of the round, exactly
// like a DropPolicy drop, and the round context is threaded through so a
// round deadline cancels in-flight requests.
type FallibleParticipant interface {
	Participant
	// TryLocalUpdate is LocalUpdate with failure reporting and
	// cancellation.
	TryLocalUpdate(ctx context.Context, global []float64, round int) ([]float64, error)
}

// Client is an honest participant running plain local SGD. It keeps its
// shard (read only), hyperparameters and seed; the model it trains on is
// borrowed from its federation's free list for the length of one LocalUpdate.
type Client struct {
	id       int
	seed     int64
	data     *dataset.Dataset
	replicas *nn.Replicas
	cfg      Config
	quant    metrics.ReportQuant
}

var _ Participant = (*Client)(nil)

// NewClient builds an honest client. template provides the architecture:
// the client trains on working copies drawn from template.Replicas(), the
// list it shares with every participant built from the same template
// pointer — copies of the template as it was when the first of them was
// built, so set the backend and per-layer penalties before that.
func NewClient(id int, data *dataset.Dataset, template *nn.Sequential, cfg Config, seed int64) *Client {
	return &Client{
		id:       id,
		seed:     seed,
		data:     data,
		replicas: template.Replicas(),
		cfg:      cfg.withDefaults(),
	}
}

// ID implements Participant.
func (c *Client) ID() int { return c.id }

// LocalUpdate implements Participant.
func (c *Client) LocalUpdate(global []float64, round int) []float64 {
	r := c.replicas.Get()
	r.Model.SetParamsVector(global)
	localTrain(r, c.cfg, c.data, c.seed, c.id, round)
	d := deltaFrom(r.Model, global)
	c.replicas.Put(r)
	return d
}

// Trainer runs minibatch SGD while owning every reusable piece of per-step
// state: the optimizer (velocity buffers), the batch assembly buffers and
// the loss-gradient scratch. After the first step it has run on a model,
// the training hot path performs no heap allocations. A Trainer is
// single-goroutine state, like the model it trains, and its optimizer
// buffers are keyed on that model's parameters, so the two stay together:
// Client and Attacker borrow them as one nn.Replica (DESIGN.md §4), which
// makes the number of warm Trainers the number of concurrent local updates,
// not the number of participants.
type Trainer struct {
	cfg     Config
	opt     *nn.SGD
	scratch tensor.Arena
	labels  []int
	order   dataset.Dataset // Train's copy of data's sample headers: what it shuffles
}

// NewTrainer builds a reusable training loop for the given hyperparameters.
func NewTrainer(cfg Config) *Trainer {
	t := &Trainer{opt: &nn.SGD{}}
	t.configure(cfg.withDefaults())
	return t
}

// configure sets the hyperparameters of the next Train call; the buffers
// carry over.
func (t *Trainer) configure(cfg Config) {
	t.cfg = cfg
	t.opt.LR, t.opt.Momentum, t.opt.WeightDecay = cfg.LR, cfg.Momentum, cfg.WeightDecay
}

// localTrain is a borrower's SGD run on its replica, by the Trainer that
// travels with it, set to the borrower's cfg (defaults filled in), in a batch
// order drawn from (seed, id, round). Nothing of a previous borrower survives:
// Train restarts momentum and its sample order, the borrower sets parameters.
func localTrain(r *nn.Replica, cfg Config, data *dataset.Dataset, seed int64, id, round int) {
	if r.Aux == nil {
		r.Aux = NewTrainer(cfg)
	}
	t := r.Aux.(*Trainer)
	t.configure(cfg)
	rng := participantRNG(uint64(seed), uint64(id), uint64(round))
	t.Train(r.Model, data, rng)
	participantRNGs.Put(rng)
}

// Train runs cfg.LocalEpochs of minibatch SGD over data on model m, in
// place. Momentum restarts from zero on every call, matching a freshly
// constructed optimizer — each federated local update is an independent
// SGD run — while the velocity buffers themselves are reused. data is only
// read, so shards can be shared: the epochs shuffle t.order, refilled from it.
func (t *Trainer) Train(m *nn.Sequential, data *dataset.Dataset, rng *rand.Rand) {
	t.opt.ZeroVelocity()
	t.order = dataset.Dataset{Shape: data.Shape, Classes: data.Classes, Samples: append(t.order.Samples[:0], data.Samples...)}
	var x *tensor.Tensor
	for e := 0; e < t.cfg.LocalEpochs; e++ {
		t.order.Shuffle(rng)
		for lo := 0; lo < t.order.Len(); lo += t.cfg.BatchSize {
			hi := min(lo+t.cfg.BatchSize, t.order.Len())
			s := data.Shape
			x = t.scratch.Get("x", hi-lo, s.C, s.H, s.W)
			x, t.labels = t.order.BatchInto(lo, hi, x, t.labels)
			m.ZeroGrads()
			logits := m.Forward(x, true)
			dlogits := t.scratch.GetLike("dlogits", logits)
			nn.SoftmaxXentInto(dlogits, logits, t.labels)
			// BackwardParams: same parameter gradients as Backward, minus
			// the first layer's input gradient, which SGD never reads.
			m.BackwardParams(dlogits)
			t.opt.Step(m)
		}
	}
}

// deltaFrom returns x_i − w_t: m's parameters, read in ParamsVector order
// straight out of its tensors, minus global — written over every element of
// a recycled vector, which the caller of LocalUpdate comes to own.
func deltaFrom(m *nn.Sequential, global []float64) []float64 {
	if n := m.NumParams(); n != len(global) {
		panic(fmt.Sprintf("fl: delta length mismatch %d vs %d", n, len(global)))
	}
	d := wire.GetFloat64s(len(global))
	off := 0
	for _, p := range m.Params() {
		after := p.Value.Data
		out, before := d[off:off+len(after)], global[off:off+len(after)]
		for i, v := range after {
			out[i] = v - before[i]
		}
		off += len(after)
	}
	return d
}
