// Benchmarks of the paper's evaluation section at a reduced scale (one
// or two settings each; the full sweeps are produced by cmd/fedbench,
// optionally with -full), then of the round and the defense loops under
// them. DESIGN.md §4 maps each spec to the paper artifact it reproduces,
// and EXPERIMENTS.md records a captured run against the paper's numbers.
package fedcleanse

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/eval"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// benchSink prevents dead-code elimination of experiment results.
var benchSink any

// BenchmarkArtifacts regenerates every table and figure, one
// sub-benchmark per spec, each on a grid of its own: an iteration is the
// artifact's federated trainings under attack plus its defenses or
// measurements, so ns/op is the end-to-end cost of regenerating it. One
// backdoor task per table keeps the cost bounded.
func BenchmarkArtifacts(b *testing.B) {
	onePair := []eval.Pair{{VL: 9, AL: 2}}
	sw := eval.Sweep{
		Pairs: onePair, NinePairs: onePair, SizePairs: onePair,
		Patterns: []int{1, 9}, KLabels: []int{3}, Targets: []int{2},
		Selects: []int{10}, Attackers: []int{1, 6},
		Deltas: []float64{5, 4, 3, 2}, Lambdas: []float64{0.01},
		VoteRates: []float64{0.1, 0.3, 0.5, 0.7, 0.9}, Pair: onePair[0],
	}
	for _, sp := range eval.Specs(sw) {
		b.Run(sp.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eval.RunGrid([]eval.Spec{sp}, nn.Float64, func(_, text string, _ time.Duration) { benchSink = text })
			}
		})
	}
}

// benchFLRound measures one federated round over a cohort of the given
// size — the `attackers` clients just before the last one are
// fl.NewAttacker, the rest benign — with the worker count pinned (0 = automatic) and the
// clients' local training on the given numeric backend: the
// serial-vs-parallel comparison for concurrent per-client local training,
// and the float64-vs-float32 comparison for the local-training arithmetic
// (aggregation itself is float64 on either backend).
func benchFLRound(b *testing.B, workers int, backend nn.Backend, clients, attackers int) {
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	train, _ := dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 120, TestPerClass: 10, Seed: 31})
	rng := rand.New(rand.NewSource(32))
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rng)
	template.SetBackend(backend)
	shards := dataset.PartitionKLabel(train, clients, 3, 60, rng)
	cfg := fl.Config{Rounds: 1, LocalEpochs: 1, BatchSize: 20, LR: 0.05}
	poison := dataset.PoisonConfig{
		Trigger:     dataset.PixelPattern(3, dataset.Shape{C: 1, H: 16, W: 16}),
		VictimLabel: 9,
		TargetLabel: 2,
		Copies:      2,
	}
	parts := make([]fl.Participant, clients)
	for i := range parts {
		if i >= clients-1-attackers && i < clients-1 {
			parts[i] = fl.NewAttacker(i, shards[i], template, cfg, poison, 3, 40+int64(i))
		} else {
			parts[i] = fl.NewClient(i, shards[i], template, cfg, 40+int64(i))
		}
	}
	server := fl.NewServer(template, parts, cfg, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = server.RoundDetail(i).Completed
	}
}

func BenchmarkFLRound16ClientsSerial(b *testing.B)   { benchFLRound(b, 1, nn.Float64, 16, 0) }
func BenchmarkFLRound16ClientsParallel(b *testing.B) { benchFLRound(b, 0, nn.Float64, 16, 0) }

// BenchmarkFLRoundPaperCohort is the round the paper's threat model
// actually runs: 10 clients of which 4 (indices 5-8) are attackers
// training 3x the local epochs on a poisoned (larger) shard, so client
// cost is skewed where the 16-client pair above is uniform. Its
// workers=1|2|4|8 sub-benchmarks are the scaling curve of the
// work-conserving fan-out (DESIGN.md §7): a round should cost about the
// summed client cost divided by the workers the host really has. The
// nightly workflow records it on a multi-core runner.
func BenchmarkFLRoundPaperCohort(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchFLRound(b, workers, nn.Float64, 10, 4)
		})
	}
}

// BenchmarkFLRoundPopulation is the other axis of that curve: the cohort
// stays at 10 and the workers at 2 while the registered population grows
// 10 → 100 → 1000, every sampled slot materialized by a factory that builds
// a real fl.NewClient. Clients borrow their working model from the
// template's free list (DESIGN.md §8), so ns/op and B/op should be flat in
// the population: a client that has never trained before finds a warm
// model. The nightly workflow appends it to the same artifact.
func BenchmarkFLRoundPopulation(b *testing.B) {
	prev := parallel.SetWorkers(2)
	defer parallel.SetWorkers(prev)
	train, _ := dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 120, TestPerClass: 10, Seed: 33})
	rng := rand.New(rand.NewSource(34))
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rng)
	shards := dataset.PartitionKLabel(train, 10, 3, 60, rng)
	cfg := fl.Config{Rounds: 1, SelectPerRound: 10, LocalEpochs: 1, BatchSize: 20, LR: 0.05}
	for _, clients := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			reg := fl.NewRegistry(func(id int) fl.Participant {
				return fl.NewClient(id, shards[id%len(shards)], template, cfg, 60+int64(id))
			})
			reg.RegisterRange(0, clients)
			server := fl.NewRegistryServer(template, reg, cfg, 70)
			server.RoundDetail(0) // the first round makes the working models
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = server.RoundDetail(i + 1).Completed
			}
		})
	}
}

// BenchmarkFLRound16ClientsSerialFloat32 is the same round with every
// client training on the float32 backend; beside
// BenchmarkFLRound16ClientsSerial it reads the cross-precision speedup.
func BenchmarkFLRound16ClientsSerialFloat32(b *testing.B) { benchFLRound(b, 1, nn.Float32, 16, 0) }

// defenseBench is the shared fixture of the defense-loop benchmarks: an
// (untrained) SmallCNN, the server's validation slice, the attack's test
// split and a fixed prune order over the last conv layer. The model is
// deliberately untrained — the benchmarks measure the mutate-then-evaluate
// loops themselves, whose cost does not depend on the weights.
type defenseBench struct {
	template  *nn.Sequential
	train     *dataset.Dataset
	val, test *dataset.Dataset
	poison    dataset.PoisonConfig
	layerIdx  int
	order     []int
}

// newDefenseBench pins the worker count to 1 (serial-vs-serial is the
// apples-to-apples comparison for the incremental-evaluation work; the
// parallel fan-out is benchmarked by the FL-round pair above) and builds
// the fixture. Callers must restore the previous worker count.
func newDefenseBench() (*defenseBench, func()) {
	prev := parallel.SetWorkers(1)
	train, test := dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 80, TestPerClass: 40, Seed: 61})
	rng := rand.New(rand.NewSource(62))
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rng)
	nVal := test.Len() * 3 / 10
	f := &defenseBench{
		template: template,
		train:    train,
		val:      &dataset.Dataset{Shape: test.Shape, Classes: test.Classes, Samples: test.Samples[:nVal]},
		test:     &dataset.Dataset{Shape: test.Shape, Classes: test.Classes, Samples: test.Samples[nVal:]},
		poison: dataset.PoisonConfig{
			Trigger:     dataset.PixelPattern(3, dataset.Shape{C: 1, H: 16, W: 16}),
			VictimLabel: 9,
			TargetLabel: 2,
		},
		layerIdx: template.LastConvIndex(),
	}
	units := template.Layer(f.layerIdx).(nn.Prunable).Units()
	f.order = rng.Perm(units)
	return f, func() { parallel.SetWorkers(prev) }
}

// BenchmarkPruneSweep measures the Fig. 5 instrument: pruning every unit
// of the last conv layer while recording benign accuracy and attack
// success after each prune.
func BenchmarkPruneSweep(b *testing.B) {
	f, restore := newDefenseBench()
	defer restore()
	ta := metrics.NewSuffixEvaluator(f.val, 0)
	asr := metrics.NewCachedASR(f.test, f.poison, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := f.template.Clone()
		benchSink = core.PruneSweep(m, f.layerIdx, f.order, ta, asr)
	}
}

// BenchmarkAWSweep measures the Fig. 6 instrument over the pipeline's
// default AW targets (last conv layer, then the first dense layer after
// it).
func BenchmarkAWSweep(b *testing.B) {
	f, restore := newDefenseBench()
	defer restore()
	deltas := make([]float64, 0, 17)
	for d := 5.0; d >= 1; d -= 0.25 {
		deltas = append(deltas, d)
	}
	layers := core.DefaultAWLayers(f.template, f.layerIdx)
	ta := metrics.NewSuffixEvaluator(f.val, 0)
	asr := metrics.NewCachedASR(f.test, f.poison, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, li := range layers {
			m := f.template.Clone()
			benchSink = core.AWSweep(m, li, deltas, ta, asr)
		}
	}
}

// BenchmarkDefendPipeline measures Algorithm 1 end to end (MVP pruning +
// adjusting weights; fine-tuning off so the cost is the defense loops plus
// the clients' activation reports).
func BenchmarkDefendPipeline(b *testing.B) {
	f, restore := newDefenseBench()
	defer restore()
	const clients = 8
	rng := rand.New(rand.NewSource(63))
	shards := dataset.PartitionKLabel(f.train, clients, 3, 40, rng)
	flCfg := fl.Config{Rounds: 1, LocalEpochs: 1, BatchSize: 20, LR: 0.05}
	parts := make([]fl.Participant, clients)
	for i := range parts {
		parts[i] = fl.NewClient(i, shards[i], f.template, flCfg, 70+int64(i))
	}
	cfg := core.DefaultPipelineConfig()
	cfg.FineTuneRounds = 0
	evalFn := metrics.NewSuffixEvaluator(f.val, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := f.template.Clone()
		benchSink = core.RunPipeline(m, fl.ReportClients(parts), nil, evalFn, cfg)
	}
}

// BenchmarkAdaptiveAttacks is the ablation for the paper's §VI-B
// discussion: the defense against a rank-manipulating attacker (Attack 1)
// and an AW-aware self-clipping attacker.
func BenchmarkAdaptiveAttacks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := eval.MNISTScenario(9, 2)
		t := eval.Build(s)
		t.Attackers[0].SetDefenseBehavior(fl.AttackerDefenseBehavior{ManipulateRanks: true})
		t.Attackers[0].SelfClipDelta = 3
		t.Server.Train(nil)
		m, _ := t.DefendMode("all")
		benchSink = [2]float64{t.ModelTA(m), t.ModelAA(m)}
	}
}
