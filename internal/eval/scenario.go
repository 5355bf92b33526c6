// Package eval is the experiment harness of the fedcleanse reproduction:
// it wires datasets, models, federated training, attacks and the defense
// pipeline into the named scenarios of the paper's evaluation section, and
// renders the paper's tables and figures from measured results.
package eval

import (
	"fmt"
	"math/rand"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
)

// Scenario describes one federated backdoor experiment end to end.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Gen generates the train/test splits.
	Gen func(dataset.GenConfig) (*dataset.Dataset, *dataset.Dataset)
	// GenCfg parameterizes generation.
	GenCfg dataset.GenConfig
	// Build constructs the model architecture.
	Build nn.ModelBuilder

	// Clients is the population size; Attackers of them are malicious.
	Clients, Attackers int
	// KLabels is the non-IID distribution parameter (labels per client).
	KLabels int
	// PerClient is the local shard size.
	PerClient int

	// FL configures federated training.
	FL fl.Config
	// Gamma is the model-replacement amplification coefficient.
	Gamma float64
	// Poison is the backdoor task. Poison.Trigger must be set unless DBA
	// is true, in which case the DBA global pattern is used and decomposed
	// across the attackers.
	Poison dataset.PoisonConfig
	// DBA switches to the Distributed Backdoor Attack.
	DBA bool

	// LastConvL2 applies an extra L2 penalty to the last convolutional
	// layer during training (the paper's §VI-A regularization study).
	LastConvL2 float64

	// Backend selects the numeric backend for every model derived from the
	// scenario's template (clients, attackers, defense clones). The zero
	// value is nn.Float64, the canonical reference arithmetic; nn.Float32
	// runs layer kernels in float32 while aggregation, optimizer state and
	// checkpoints stay float64 (DESIGN.md §13).
	Backend nn.Backend

	// ReportQuant selects the precision every participant records its
	// activation report at (DESIGN.md §14). The zero value is the float64
	// reference; metrics.ReportInt8 ranks and votes on affine-quantized
	// int8 codes, the representation the compact wire ships.
	ReportQuant metrics.ReportQuant

	// Seed drives every stochastic choice in the scenario.
	Seed int64
}

// MNISTScenario returns the paper's MNIST-scale setting: 10 clients, one
// attacker, 3-label non-IID shards, small CNN, 3-pixel trigger.
func MNISTScenario(victim, target int) Scenario {
	return Scenario{
		Name:      fmt.Sprintf("mnist %d->%d", victim, target),
		Gen:       dataset.GenSynthMNIST,
		GenCfg:    dataset.GenConfig{TrainPerClass: 150, TestPerClass: 70, Seed: 11},
		Build:     nn.NewSmallCNN,
		Clients:   10,
		Attackers: 1,
		KLabels:   3,
		PerClient: 100,
		FL:        fl.Config{Rounds: 22, LocalEpochs: 2, BatchSize: 20, LR: 0.05, Momentum: 0, WeightDecay: 1e-4},
		Gamma:     6,
		Poison: dataset.PoisonConfig{
			Trigger:     dataset.PixelPattern(3, dataset.Shape{C: 1, H: 16, W: 16}),
			VictimLabel: victim,
			TargetLabel: target,
			Copies:      2,
		},
		Seed: 1,
	}
}

// FashionScenario returns the Fashion-MNIST-scale setting: single-pixel
// trigger, three-conv CNN (Table II).
func FashionScenario(victim, target int) Scenario {
	s := MNISTScenario(victim, target)
	s.Name = fmt.Sprintf("fashion %d->%d", victim, target)
	s.Gen = dataset.GenSynthFashion
	s.Build = nn.NewFashionCNN
	s.FL.Rounds = 12
	s.Poison.Trigger = dataset.PixelPattern(1, dataset.Shape{C: 1, H: 16, W: 16})
	return s
}

// CIFARScenario returns the CIFAR-scale DBA setting: MiniVGG, four
// attackers each carrying one quarter of the global trigger (Table III).
func CIFARScenario(victim, target int) Scenario {
	return Scenario{
		Name:      fmt.Sprintf("cifar-dba %d->%d", victim, target),
		Gen:       dataset.GenSynthCIFAR,
		GenCfg:    dataset.GenConfig{TrainPerClass: 150, TestPerClass: 70, Seed: 13},
		Build:     nn.NewMiniVGG,
		Clients:   10,
		Attackers: 4,
		KLabels:   3,
		PerClient: 100,
		FL:        fl.Config{Rounds: 20, LocalEpochs: 2, BatchSize: 20, LR: 0.05, Momentum: 0, WeightDecay: 1e-4},
		Gamma:     2,
		DBA:       true,
		Poison: dataset.PoisonConfig{
			Trigger:     dataset.DBAGlobalPattern(dataset.Shape{C: 3, H: 16, W: 16}),
			VictimLabel: victim,
			TargetLabel: target,
		},
		Seed: 2,
	}
}

// WithSeed returns s reseeded at n the way bench/ and the commands derive
// their seeds: Seed = n and GenCfg.Seed = n+10 (the server's selection
// seed, Seed+300, follows).
func (s Scenario) WithSeed(n int64) Scenario {
	s.Seed, s.GenCfg.Seed = n, n+10
	return s
}

// Trained is a fully-built scenario after federated training.
type Trained struct {
	Scenario     Scenario
	Server       *fl.Server
	Participants []fl.Participant
	Attackers    []*fl.Attacker
	// Test is the benign evaluation split; Validation is the disjoint
	// slice of it the server uses as its defense guard.
	Test, Validation *dataset.Dataset

	// Lazily-built cached evaluators (metrics.SuffixEvaluator), one per
	// evaluation set, so batch buffers, the memoized poisoned test set and
	// prefix-activation caches are shared by every probe and defense loop
	// on this Trained. The harness is single-goroutine, which these
	// evaluators require.
	valEval, testEval, asrEval *metrics.SuffixEvaluator
}

// Components deterministically derives a scenario's shared pieces: the
// model template, the per-client shards, and the test/validation splits.
// Distinct processes calling Components with the same Scenario get
// identical results, which is what cmd/fedclient and cmd/fedserve rely on
// to run one federation across OS processes.
func Components(s Scenario) (template *nn.Sequential, shards []*dataset.Dataset, test, validation *dataset.Dataset) {
	rng := rand.New(rand.NewSource(s.Seed))
	train, testAll := s.Gen(s.GenCfg)
	in := nn.Input{C: train.Shape.C, H: train.Shape.H, W: train.Shape.W}
	template = s.Build(in, train.Classes, rng)
	// The backend rides on the template: fl.NewClient/NewAttacker and every
	// defense loop derive their models via Clone, which preserves it.
	template.SetBackend(s.Backend)
	if s.LastConvL2 > 0 {
		li := template.LastConvIndex()
		if li >= 0 {
			template.Layer(li).(*nn.Conv2D).SetL2(s.LastConvL2)
		}
	}
	shards = dataset.PartitionKLabelForced(train, s.Clients, s.KLabels, s.PerClient, rng, s.Poison.VictimLabel, s.Attackers)
	// The server's validation set is a disjoint 30% slice of the test
	// split; reported test accuracy uses the remaining 70%.
	nVal := testAll.Len() * 3 / 10
	validation = &dataset.Dataset{Shape: testAll.Shape, Classes: testAll.Classes, Samples: testAll.Samples[:nVal]}
	test = &dataset.Dataset{Shape: testAll.Shape, Classes: testAll.Classes, Samples: testAll.Samples[nVal:]}
	return template, shards, test, validation
}

// ParticipantFor deterministically constructs the scenario's i-th
// participant (an attacker for i < s.Attackers, an honest client
// otherwise) from pieces obtained via Components. Distinct processes
// calling it with equal arguments build equivalent participants.
func ParticipantFor(s Scenario, i int, template *nn.Sequential, shard *dataset.Dataset) fl.Participant {
	if i >= s.Attackers {
		c := fl.NewClient(i, shard, template, s.FL, s.Seed+200+int64(i))
		c.SetReportQuant(s.ReportQuant)
		return c
	}
	poison := s.Poison
	if s.DBA {
		poison.Trigger = s.Poison.Trigger.Decompose(s.Attackers)[i]
	}
	a := fl.NewAttacker(i, shard, template, s.FL, poison, s.Gamma, s.Seed+100+int64(i))
	a.ScaleFromRound = s.FL.Rounds / 2
	a.SetReportQuant(s.ReportQuant)
	return a
}

// Build constructs the population and server for a scenario without
// training (exposed for experiments that trace training rounds).
func Build(s Scenario) *Trained {
	template, shards, evalTest, validation := Components(s)

	var parts []fl.Participant
	var attackers []*fl.Attacker
	for i := 0; i < s.Clients; i++ {
		p := ParticipantFor(s, i, template, shards[i])
		parts = append(parts, p)
		if a, ok := p.(*fl.Attacker); ok {
			attackers = append(attackers, a)
		}
	}
	server := fl.NewServer(template, parts, s.FL, s.Seed+300)

	return &Trained{
		Scenario:     s,
		Server:       server,
		Participants: parts,
		Attackers:    attackers,
		Test:         evalTest,
		Validation:   validation,
	}
}

// Run builds and federatedly trains a scenario.
func Run(s Scenario) *Trained {
	t := Build(s)
	t.Server.Train(nil)
	return t
}

// TestEvaluator returns the cached benign-accuracy evaluator over the test
// split (scores are fractions; TA/ModelTA scale to percent).
func (t *Trained) TestEvaluator() *metrics.SuffixEvaluator {
	if t.testEval == nil {
		t.testEval = metrics.NewSuffixEvaluator(t.Test, 0)
	}
	return t.testEval
}

// ASREvaluator returns the cached attack-success evaluator: the poisoned
// test set is built once here and reused by every AA probe and sweep,
// instead of being re-poisoned per metrics.AttackSuccessRate call.
func (t *Trained) ASREvaluator() *metrics.SuffixEvaluator {
	if t.asrEval == nil {
		t.asrEval = metrics.NewCachedASR(t.Test, t.Scenario.Poison, 0)
	}
	return t.asrEval
}

// TA returns the global model's benign test accuracy (percent).
func (t *Trained) TA() float64 {
	return 100 * t.TestEvaluator().Evaluate(t.Server.Model)
}

// AA returns the attack success rate (percent) of the scenario's backdoor
// task against the global model, always evaluated with the full (global)
// trigger.
func (t *Trained) AA() float64 {
	return 100 * t.ASREvaluator().Evaluate(t.Server.Model)
}

// ModelTA and ModelAA evaluate an arbitrary model under this scenario's
// test split and backdoor task.
func (t *Trained) ModelTA(m *nn.Sequential) float64 {
	return 100 * t.TestEvaluator().Evaluate(m)
}

// ModelAA evaluates attack success of m (percent).
func (t *Trained) ModelAA(m *nn.Sequential) float64 {
	return 100 * t.ASREvaluator().Evaluate(m)
}

// ValidationEvaluator returns the defense's accuracy guard: accuracy on
// the server's validation slice, as a cached evaluator so the pipeline's
// mutate-then-evaluate loops replay only suffix layers per step.
func (t *Trained) ValidationEvaluator() core.ScopedEvaluator {
	if t.valEval == nil {
		t.valEval = metrics.NewSuffixEvaluator(t.Validation, 0)
	}
	return t.valEval
}

// Defend clones the trained global model and runs the defense pipeline on
// the clone, returning it with the pipeline report. The trained server
// remains untouched, so multiple defense configurations can be compared.
func (t *Trained) Defend(cfg core.PipelineConfig) (*nn.Sequential, core.Report) {
	m := t.Server.Model.Clone()
	rep := core.RunPipeline(m, fl.ReportClients(t.Participants), t.Server, t.ValidationEvaluator(), cfg)
	return m, rep
}
