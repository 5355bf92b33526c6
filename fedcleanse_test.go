package fedcleanse_test

import (
	"math/rand"
	"testing"

	fedcleanse "github.com/fedcleanse/fedcleanse"
)

// TestPublicAPISurface exercises the facade exactly as a downstream user
// would: build data, model, federation and defense through the re-exported
// names only.
func TestPublicAPISurface(t *testing.T) {
	var train, test *fedcleanse.Dataset = fedcleanse.GenSynthMNIST(fedcleanse.GenConfig{
		TrainPerClass: 20, TestPerClass: 10, Seed: 1,
	})
	if train.Len() != 200 || test.Len() != 100 {
		t.Fatalf("dataset sizes %d/%d", train.Len(), test.Len())
	}
	rng := rand.New(rand.NewSource(2))
	shards := fedcleanse.PartitionKLabel(train, 4, 3, 40, rng)
	var template *fedcleanse.Model = fedcleanse.NewSmallCNN(
		fedcleanse.ModelInput{C: 1, H: 16, W: 16}, train.Classes, rng)
	cfg := fedcleanse.FLConfig{Rounds: 2, LocalEpochs: 1, BatchSize: 20, LR: 0.05}

	var trigger fedcleanse.Trigger = fedcleanse.PixelPattern(3, train.Shape)
	poison := fedcleanse.PoisonConfig{
		Trigger:     trigger,
		VictimLabel: 9,
		TargetLabel: 1,
	}
	var attacker *fedcleanse.Attacker = fedcleanse.NewAttacker(0, shards[0], template, cfg, poison, 2, 3)
	parts := []fedcleanse.Participant{attacker}
	for i := 1; i < 4; i++ {
		var client *fedcleanse.Client = fedcleanse.NewClient(i, shards[i], template, cfg, int64(4+i))
		parts = append(parts, client)
	}
	var server *fedcleanse.Server = fedcleanse.NewServer(template, parts, cfg, 10)
	server.Train(nil)

	if acc := fedcleanse.Accuracy(server.Model, test, 0); acc <= 0.1 {
		t.Fatalf("federated training achieved only %.2f accuracy", acc)
	}
	_ = fedcleanse.AttackSuccessRate(server.Model, test, poison, 0)

	var pcfg fedcleanse.PipelineConfig = fedcleanse.DefaultPipelineConfig()
	pcfg.FineTuneRounds = 1
	m := server.Model.Clone()
	var suffix *fedcleanse.SuffixEvaluator = fedcleanse.NewSuffixEvaluator(test, 0)
	var evalFn fedcleanse.ScopedEvaluator = suffix
	var clients []fedcleanse.ReportClient = fedcleanse.ReportClients(parts)
	var rep fedcleanse.DefenseReport = fedcleanse.RunPipeline(m, clients, server, evalFn, pcfg)
	if rep.AccFinal <= 0 {
		t.Fatal("pipeline produced no final accuracy")
	}
}

// TestPublicScenarioAPI exercises the prepackaged scenario surface.
func TestPublicScenarioAPI(t *testing.T) {
	var s fedcleanse.Scenario = fedcleanse.MNISTScenario(9, 2)
	s.FL.Rounds = 1
	var tr *fedcleanse.Trained = fedcleanse.BuildScenario(s)
	if len(tr.Participants) != s.Clients {
		t.Fatalf("%d participants, want %d", len(tr.Participants), s.Clients)
	}
	tr.Server.RoundDetail(0)
	if ta := tr.TA(); ta <= 0 {
		t.Fatalf("TA = %g after one round", ta)
	}
}

// TestPublicBaselines exercises the robust-aggregation baselines through
// the facade.
func TestPublicBaselines(t *testing.T) {
	deltas := [][]float64{{1}, {2}, {3}, {100}}
	if got := (fedcleanse.Median{}).Aggregate(deltas)[0]; got != 2.5 {
		t.Fatalf("median %g, want 2.5", got)
	}
	if got := (fedcleanse.TrimmedMean{Trim: 1}).Aggregate(deltas)[0]; got != 2.5 {
		t.Fatalf("trimmed mean %g, want 2.5", got)
	}
	k := fedcleanse.Krum{F: 1}
	if got := k.Aggregate(deltas)[0]; got > 3 {
		t.Fatalf("krum picked the outlier: %g", got)
	}
}

func TestPruneMethodConstants(t *testing.T) {
	for want, m := range map[string]fedcleanse.PruneMethod{"RAP": fedcleanse.RAP, "MVP": fedcleanse.MVP} {
		if m.String() != want {
			t.Fatalf("prune method %q mis-exported as %q", want, m.String())
		}
	}
}
