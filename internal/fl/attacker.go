package fl

import (
	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// Attacker is a malicious participant implementing the paper's threat model
// (§III-B/C): it trains on a poisoned local dataset (clean samples plus
// triggered victim-label copies relabeled to the target) and amplifies its
// update by the model-replacement coefficient γ so the backdoor survives
// averaging.
type Attacker struct {
	id       int
	seed     int64
	clean    *dataset.Dataset
	poison   *dataset.Dataset
	replicas *nn.Replicas
	cfg      Config

	// Gamma is the attack-update amplification coefficient (1 ≤ γ ≤ N).
	Gamma float64
	// ScaleFromRound delays the γ amplification until the given round:
	// §III-C notes the replacement algebra assumes benign deviations cancel,
	// which only holds as the global model converges, so amplifying from
	// round 0 mostly injects noise. The attacker still trains on poisoned
	// data (unscaled) before this round.
	ScaleFromRound int
	// Poison describes the backdoor task.
	Poison dataset.PoisonConfig

	// SelfClipDelta, when > 0, makes the attacker clip its own extreme
	// weights to μ ± SelfClipDelta·σ in the last conv layer before
	// submitting the update — the adaptive "AW-aware" attacker of §VI-B.
	SelfClipDelta float64

	// AvoidLayer/AvoidUnits implement §VI-B Attack 2, the pruning-aware
	// attack: the attacker (assumed to have obtained the global pruning
	// mask) prunes those units of its working model before training,
	// forcing the backdoor into neurons the defense will keep.
	AvoidLayer int
	AvoidUnits []int

	// defense holds the adaptive reporting behavior (see reports.go).
	defense AttackerDefenseBehavior
	// quant selects the activation report precision (see reports.go).
	quant metrics.ReportQuant
}

var _ Participant = (*Attacker)(nil)

// NewAttacker builds a model-replacement backdoor attacker with the given
// poisoning task and amplification γ.
func NewAttacker(id int, data *dataset.Dataset, template *nn.Sequential, cfg Config,
	poison dataset.PoisonConfig, gamma float64, seed int64) *Attacker {
	// The attacker trains its local model longer than honest clients: the
	// backdoor must overcome the clean supervision on near-identical victim
	// images, which a couple of epochs cannot do reliably.
	cfg = cfg.withDefaults()
	cfg.LocalEpochs *= 3
	return &Attacker{
		id:       id,
		seed:     seed,
		clean:    data,
		poison:   dataset.PoisonTrainSet(data, poison),
		replicas: template.Replicas(),
		cfg:      cfg,
		Gamma:    gamma,
		Poison:   poison,
	}
}

// ID implements Participant.
func (a *Attacker) ID() int { return a.id }

// LocalUpdate implements Participant: train to x_atk on the poisoned
// mixture, then submit γ·(x_atk − w_t). Running statistics go unscaled:
// scaling them would corrupt the global model and expose the attack.
func (a *Attacker) LocalUpdate(global []float64, round int) []float64 {
	r := a.replicas.Get()
	m := r.Model
	m.SetParamsVector(global)
	// Pruning-aware attack: train with the known-to-be-pruned units already
	// dead so the backdoor cannot rely on them; the submitted delta simply
	// carries zeros at those units. The masks last for this update only —
	// the working model goes back to a list honest clients draw from.
	snaps := make([]nn.UnitSnapshot, len(a.AvoidUnits))
	for i, u := range a.AvoidUnits {
		snaps[i] = m.CaptureUnit(a.AvoidLayer, u, nn.UnitSnapshot{})
		m.PruneModelUnit(a.AvoidLayer, u)
	}
	localTrain(r, a.cfg, a.poison, a.seed, a.id, round)
	if a.SelfClipDelta > 0 {
		selfClipLastConv(m, a.SelfClipDelta)
	}
	d := deltaFrom(m, global)
	if round >= a.ScaleFromRound {
		off := 0
		for _, p := range m.Params() {
			seg := d[off : off+p.Value.Len()]
			if !p.Stat {
				tensor.Scale(seg, seg, a.Gamma)
			}
			off += len(seg)
		}
	}
	// Newest first, so a unit listed twice ends on its first, unmasked state.
	for i := len(snaps) - 1; i >= 0; i-- {
		m.RestoreUnit(snaps[i])
	}
	a.replicas.Put(r)
	return d
}

// selfClipLastConv zeroes weights outside μ ± Δ·σ in the model's last conv
// layer, mirroring the server-side AW defense so the submitted model
// carries no extreme values.
func selfClipLastConv(m *nn.Sequential, delta float64) {
	li := m.LastConvIndex()
	if li < 0 {
		return
	}
	conv := m.Layer(li).(*nn.Conv2D)
	w := conv.W.Value
	tensor.ZeroOutside(w.Data, w.Data, w.Mean(), w.Std(), delta)
}
