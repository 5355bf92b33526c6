package eval

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/nn"
)

func TestPairHelpers(t *testing.T) {
	full := FullPairs()
	if len(full) != 18 {
		t.Fatalf("FullPairs has %d entries, want 18", len(full))
	}
	for _, p := range full {
		if p.VL == p.AL {
			t.Fatalf("pair %v has victim == target", p)
		}
	}
	if len(NinePairs()) != 9 {
		t.Fatal("NinePairs should have 9 entries")
	}
	if len(QuickPairs()) == 0 {
		t.Fatal("QuickPairs is empty")
	}
	if got := (Pair{9, 0}).String(); got != "9->0" {
		t.Fatalf("Pair.String = %q", got)
	}
}

func TestScenarioConstructors(t *testing.T) {
	m := MNISTScenario(9, 2)
	if m.Poison.VictimLabel != 9 || m.Poison.TargetLabel != 2 {
		t.Fatal("MNIST scenario poison labels wrong")
	}
	if m.Clients != 10 || m.Attackers != 1 || m.KLabels != 3 {
		t.Fatalf("MNIST scenario population %d/%d/%d", m.Clients, m.Attackers, m.KLabels)
	}
	f := FashionScenario(9, 0)
	if len(f.Poison.Trigger.Pixels) != 1 {
		t.Fatal("Fashion scenario should use the single-pixel trigger")
	}
	c := CIFARScenario(9, 0)
	if !c.DBA || c.Attackers != 4 {
		t.Fatal("CIFAR scenario should use DBA with 4 attackers")
	}
}

// TestParticipantForDBATriggersDisjoint: the DBA attackers ParticipantFor
// builds carry disjoint, non-empty sub-triggers that together cover the
// global trigger.
func TestParticipantForDBATriggersDisjoint(t *testing.T) {
	s := CIFARScenario(9, 0)
	template, shards, _, _ := Components(s)
	total := 0
	seen := map[[3]int]bool{}
	for i := 0; i < s.Attackers; i++ {
		a, ok := ParticipantFor(s, i, template, shards[i]).(*fl.Attacker)
		if !ok {
			t.Fatalf("participant %d is not an attacker", i)
		}
		if len(a.Poison.Trigger.Pixels) == 0 {
			t.Fatalf("attacker %d carries an empty sub-trigger", i)
		}
		for _, px := range a.Poison.Trigger.Pixels {
			key := [3]int{px.X, px.Y, px.C}
			if seen[key] {
				t.Fatal("DBA sub-triggers overlap")
			}
			seen[key] = true
			total++
		}
	}
	if total != len(s.Poison.Trigger.Pixels) {
		t.Fatalf("sub-triggers cover %d pixels, want %d", total, len(s.Poison.Trigger.Pixels))
	}
}

func TestBuildPopulationAndSplits(t *testing.T) {
	s := MNISTScenario(9, 2)
	s.FL.Rounds = 1
	tr := Build(s)
	if len(tr.Participants) != s.Clients {
		t.Fatalf("%d participants, want %d", len(tr.Participants), s.Clients)
	}
	if len(tr.Attackers) != s.Attackers {
		t.Fatalf("%d attackers, want %d", len(tr.Attackers), s.Attackers)
	}
	// Every attacker's shard must contain victim-label samples, or the
	// backdoor task is vacuous.
	_, shards, _, _ := Components(s)
	for _, shard := range shards[:s.Attackers] {
		found := false
		for _, sm := range shard.Samples {
			if sm.Label == s.Poison.VictimLabel {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("attacker shard lacks victim-label samples")
		}
	}
	if tr.Validation.Len() == 0 || tr.Test.Len() == 0 {
		t.Fatal("empty validation or test split")
	}
	// Validation and test must be disjoint sample sets.
	seen := map[*float64]bool{}
	for _, sm := range tr.Validation.Samples {
		seen[&sm.X[0]] = true
	}
	for _, sm := range tr.Test.Samples {
		if seen[&sm.X[0]] {
			t.Fatal("validation and test share samples")
		}
	}
}

func TestDefendModeRejectsUnknown(t *testing.T) {
	tr := &Trained{}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown mode accepted")
		}
	}()
	tr.DefendMode("banish")
}

func TestTableRenderAndAverages(t *testing.T) {
	tbl := &Table{
		Title: "test",
		Modes: []string{"a", "b"},
		Rows: []Row{
			{Label: "r1", Cells: map[string]Cell{"a": {TA: 90, AA: 10}, "b": {TA: 80, AA: 20}}},
			{Label: "r2", Cells: map[string]Cell{"a": {TA: 70, AA: 30}, "b": {TA: 60, AA: 40}}},
		},
	}
	avg := tbl.Averages()
	if avg["a"].TA != 80 || avg["a"].AA != 20 || avg["b"].TA != 70 {
		t.Fatalf("averages wrong: %+v", avg)
	}
	out := tbl.Render()
	for _, want := range []string{"test", "r1", "r2", "avg", "90.0", "40.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableRenderExtraCols(t *testing.T) {
	tbl := &Table{
		Title:     "x",
		Modes:     []string{"m"},
		ExtraCols: []string{"pruned"},
		Rows: []Row{
			{Label: "r", Cells: map[string]Cell{"m": {TA: 1, AA: 2}}, Extra: map[string]int{"pruned": 7}},
		},
	}
	if !strings.Contains(tbl.Render(), "7") {
		t.Fatal("extra column not rendered")
	}
}

func TestFigureRender(t *testing.T) {
	fig := &Figure{
		Title:  "fig",
		Series: []Series{{Name: "TA", X: []float64{0, 1}, Y: []float64{97.5, 98.5}}},
	}
	out := fig.Render()
	for _, want := range []string{"fig", "TA", "97.5", "98.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure render missing %q:\n%s", want, out)
		}
	}
}

// TestEndToEndDefense is the repository's central integration test: it
// federatedly trains a backdoored model and verifies the paper's headline
// claims on a reduced-scale scenario — the attack succeeds during
// training, and the full defense pipeline substantially reduces the attack
// success rate while roughly preserving benign accuracy.
func TestEndToEndDefense(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end federated training is slow")
	}
	s := MNISTScenario(9, 2)
	tr := Run(s)
	taTrain, aaTrain := tr.TA(), tr.AA()
	if taTrain < 80 {
		t.Fatalf("training TA %.1f, want >= 80", taTrain)
	}
	if aaTrain < 70 {
		t.Fatalf("attack failed during training: AA %.1f, want >= 70", aaTrain)
	}
	m, rep := tr.DefendMode("all")
	taDef, aaDef := tr.ModelTA(m), tr.ModelAA(m)
	if aaDef > aaTrain-30 {
		t.Fatalf("defense reduced AA only %.1f -> %.1f", aaTrain, aaDef)
	}
	if taDef < taTrain-10 {
		t.Fatalf("defense cost too much accuracy: %.1f -> %.1f", taTrain, taDef)
	}
	if len(rep.Prune.Pruned) == 0 && rep.AW.Zeroed == 0 {
		t.Fatal("defense did nothing")
	}
}

// TestPruneOnlyModesRun exercises the RAP/MVP plumbing end to end on a
// short scenario.
func TestPruneOnlyModesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("federated training is slow")
	}
	s := MNISTScenario(9, 0)
	s.FL.Rounds = 6
	tr := Run(s)
	for _, method := range []core.PruneMethod{core.RAP, core.MVP} {
		cfg := core.DefaultPipelineConfig()
		cfg.Method = method
		cfg.FineTuneRounds = 0
		cfg.SkipAW = true
		m, rep := tr.Defend(cfg)
		if rep.Method != method {
			t.Fatalf("report method %v, want %v", rep.Method, method)
		}
		if tr.ModelTA(m) < rep.AccBefore*100-10 {
			t.Fatalf("%v pruning destroyed the model", method)
		}
	}
}

// TestDefenseIsAPureFunctionOfTheTrainedModel: the defense's fine-tuning
// rounds train the same participants the federation did, and what they
// train on is a function of (seed, id, round) alone — so defending one
// Trained twice gives the same bits and the same report, and the full
// pipeline gives them again after the prune-only and no-fine-tune modes
// have run on it.
func TestDefenseIsAPureFunctionOfTheTrainedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end federated training is slow")
	}
	tr := Run(MNISTScenario(9, 2))
	same := func(label string, a, b *nn.Sequential, ra, rb core.Report) {
		t.Helper()
		pa, pb := a.ParamsVector(), b.ParamsVector()
		for i := range pa {
			if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
				t.Fatalf("%s: param %d = %v, want %v", label, i, pb[i], pa[i])
			}
		}
		ra.Timing, rb.Timing = core.StageTiming{}, core.StageTiming{} // wall time
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("%s: report %+v, want %+v", label, rb, ra)
		}
	}
	first, rep := tr.Defend(core.DefaultPipelineConfig())
	if rep.FineTune.Rounds == 0 {
		t.Fatal("the default pipeline ran no fine-tuning round")
	}
	again, repAgain := tr.Defend(core.DefaultPipelineConfig())
	same("second Defend", first, again, rep, repAgain)
	for _, mode := range []string{"fp", "fp+aw"} {
		tr.DefendMode(mode)
	}
	after, repAfter := tr.DefendMode("all")
	same(`"all" after "fp" and "fp+aw"`, first, after, rep, repAfter)
}

// TestSeedFlag: -seed N reseeds the whole scenario the way bench/ does
// (Seed = N, GenCfg.Seed = N+10); -seed 0 keeps each scenario's defaults.
func TestSeedFlag(t *testing.T) {
	for _, c := range []struct {
		dataset    string
		seed, want int64
		wantGen    int64
	}{
		{"mnist", 7, 7, 17},
		{"cifar", 7, 7, 17},
		{"mnist", 0, 1, 11},
		{"cifar", 0, 2, 13},
	} {
		victim, target := 9, 2
		f := &ScenarioFlags{Dataset: &c.dataset, Victim: &victim, Target: &target, Seed: &c.seed}
		s, err := f.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		if s.Seed != c.want || s.GenCfg.Seed != c.wantGen {
			t.Errorf("%s -seed %d: Seed %d, GenCfg.Seed %d; want %d, %d",
				c.dataset, c.seed, s.Seed, s.GenCfg.Seed, c.want, c.wantGen)
		}
	}
}
