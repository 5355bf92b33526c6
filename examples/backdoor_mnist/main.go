// backdoor_mnist assembles a federated backdoor experiment from the
// library's building blocks — datasets, partitioning, clients, attacker,
// server, defense — instead of the prepackaged scenarios, and compares the
// paper's defense modes (FP, FP+AW, All) side by side.
//
//	go run ./examples/backdoor_mnist
package main

import (
	"fmt"
	"math/rand"

	fedcleanse "github.com/fedcleanse/fedcleanse"
)

func main() {
	const (
		clients   = 10
		kLabels   = 3
		perClient = 100
		victim    = 9
		target    = 0
	)
	rng := rand.New(rand.NewSource(7))

	// Data: synthetic MNIST stand-in, split non-IID (3 labels per client).
	// The attacker, client 0, needs victim-label samples to poison, so its
	// shard is forced to hold the victim label.
	train, test := fedcleanse.GenSynthMNIST(fedcleanse.GenConfig{
		TrainPerClass: 150, TestPerClass: 60, Seed: 21,
	})
	shards := fedcleanse.PartitionKLabelForced(train, clients, kLabels, perClient, rng, victim, 1)

	// Model template and FL config.
	template := fedcleanse.NewSmallCNN(
		fedcleanse.ModelInput{C: 1, H: 16, W: 16}, train.Classes, rng)
	cfg := fedcleanse.FLConfig{
		Rounds: 22, LocalEpochs: 2, BatchSize: 20, LR: 0.05, WeightDecay: 1e-4,
	}

	// One attacker with a 3-pixel trigger and model-replacement scaling.
	poison := fedcleanse.PoisonConfig{
		Trigger:     fedcleanse.PixelPattern(3, train.Shape),
		VictimLabel: victim,
		TargetLabel: target,
		Copies:      2,
	}
	attacker := fedcleanse.NewAttacker(0, shards[0], template, cfg, poison, 6, 100)
	attacker.ScaleFromRound = cfg.Rounds / 2
	parts := []fedcleanse.Participant{attacker}
	for i := 1; i < clients; i++ {
		parts = append(parts, fedcleanse.NewClient(i, shards[i], template, cfg, int64(200+i)))
	}

	server := fedcleanse.NewServer(template, parts, cfg, 300)
	fmt.Println("training ...")
	server.Train(nil)

	ta := 100 * fedcleanse.Accuracy(server.Model, test, 0)
	aa := 100 * fedcleanse.AttackSuccessRate(server.Model, test, poison, 0)
	fmt.Printf("after training: TA=%.1f%% AA=%.1f%%\n\n", ta, aa)

	// Compare defense modes on clones of the trained global model. The
	// cached evaluator re-runs only the layers a defense step mutated.
	evalFn := fedcleanse.NewSuffixEvaluator(test, 0)
	reporters := fedcleanse.ReportClients(parts)
	for _, mode := range []string{"fp", "fp+aw", "all"} {
		pcfg := fedcleanse.DefaultPipelineConfig()
		switch mode {
		case "fp":
			pcfg.FineTuneRounds = 0
			pcfg.SkipAW = true
		case "fp+aw":
			pcfg.FineTuneRounds = 0
		}
		m := server.Model.Clone()
		fedcleanse.RunPipeline(m, reporters, server, evalFn, pcfg)
		fmt.Printf("%-6s TA=%.1f%% AA=%.1f%%\n", mode,
			100*fedcleanse.Accuracy(m, test, 0),
			100*fedcleanse.AttackSuccessRate(m, test, poison, 0))
	}
}
