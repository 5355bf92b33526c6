package eval

import (
	"flag"
	"math"
	"reflect"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
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

// The renderers' exact bytes: fedbench's output is compared byte for byte
// across commits (scripts/fedbench_diff.sh), so these pin every space.

const (
	twoRowTable = "test\n" +
		"setting        | a             | b            \n" +
		"               |     TA     AA |     TA     AA\n" +
		"r1             |   90.0   10.0 |   80.0   20.0\n" +
		"r2             |   70.0   30.0 |   60.0   40.0\n" +
		"avg            |   80.0   20.0 |   70.0   30.0\n"
	oneRowTable = "one\n" +
		"setting        | a            \n" +
		"               |     TA     AA\n" +
		"9->2           |   91.6   26.7\n"
	countTable = "counts\n" +
		"setting        | training      | fp            |   pruned |   zeroed\n" +
		"               |     TA     AA |     TA     AA |          |         \n" +
		"1-pixel        |   90.3   97.8 |   88.1   40.0 |        7 |      113\n" +
		"9-pixel        |   89.7   99.9 |   87.5   10.2 |       12 |        0\n" +
		"avg            |   90.0   98.8 |   87.8   25.1\n"
	wideTable = "wide\n" +
		"setting            | training      | neural-cleanse\n" +
		"                   |     TA     AA |      TA     AA\n" +
		"aw-aware self-clip |   90.6   97.8 |    72.2   97.8\n"
	twoSeriesFigure = "fig\n" +
		"  TA target 2 layer 3          (0: 91.6) (5: 90.0) (2.5: 88.4)\n" +
		"  AA target 2 layer 3          (0: 97.8) (5: 60.1) (2.5: 26.7)\n"
)

func TestTableRenderAndAverages(t *testing.T) {
	two := []Cell{
		{Row: "r1", Arm: "a", TA: 90, AA: 10}, {Row: "r1", Arm: "b", TA: 80, AA: 20},
		{Row: "r2", Arm: "a", TA: 70, AA: 30}, {Row: "r2", Arm: "b", TA: 60, AA: 40},
	}
	if got := renderTable("test", two, nil); got != twoRowTable {
		t.Errorf("two-row table:\n%q\nwant\n%q", got, twoRowTable)
	}
	one := []Cell{{Row: "9->2", Arm: "a", TA: 91.6, AA: 26.7}}
	if got := renderTable("one", one, nil); got != oneRowTable {
		t.Errorf("one-row table:\n%q\nwant\n%q", got, oneRowTable)
	}
	// A label longer than its column's default width widens that column.
	wide := []Cell{{Row: "aw-aware self-clip", Arm: "training", TA: 90.6, AA: 97.8}, {Row: "aw-aware self-clip", Arm: "neural-cleanse", TA: 72.2, AA: 97.8}}
	if got := renderTable("wide", wide, nil); got != wideTable {
		t.Errorf("table with long labels:\n%q\nwant\n%q", got, wideTable)
	}
}

func TestTableRenderExtraCols(t *testing.T) {
	cells := []Cell{
		{Row: "1-pixel", Arm: "training", TA: 90.3, AA: 97.8}, {Row: "1-pixel", Arm: "fp", TA: 88.1, AA: 40, Pruned: 7, Zeroed: 113},
		{Row: "9-pixel", Arm: "training", TA: 89.7, AA: 99.9}, {Row: "9-pixel", Arm: "fp", TA: 87.5, AA: 10.2, Pruned: 12},
	}
	counts := []count{{"pruned", "fp", prunedCount}, {"zeroed", "fp", zeroedCount}}
	if got := renderTable("counts", cells, counts); got != countTable {
		t.Errorf("table with integer columns:\n%q\nwant\n%q", got, countTable)
	}
}

func TestFigureRender(t *testing.T) {
	var cells []Cell
	for i, x := range []float64{0, 5, 2.5} {
		cells = append(cells, Cell{Arm: "target 2 layer 3", X: x, TA: []float64{91.6, 90, 88.4}[i], AA: []float64{97.8, 60.1, 26.7}[i]})
	}
	if got := renderSeries("fig", cells); got != twoSeriesFigure {
		t.Errorf("two-series figure:\n%q\nwant\n%q", got, twoSeriesFigure)
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
	tr := trained(t, MNISTScenario(9, 2))
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

// TestPruneOnlyModesRun exercises the RAP/MVP plumbing end to end on the
// pipeline oracle's short federation.
func TestPruneOnlyModesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("federated training is slow")
	}
	tr := trained(t, oracleScenario(nn.Float64))
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
	tr := trained(t, MNISTScenario(9, 2))
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
// The other scenario flags override their fields when set and keep the
// scenario's values at their defaults, and an unknown backend or report
// precision is an error.
func TestSeedFlag(t *testing.T) {
	// AddScenarioFlags registers on the process-wide set; a private one
	// lets the test run twice in one binary and leaves no value behind.
	saved := flag.CommandLine
	flag.CommandLine = flag.NewFlagSet(t.Name(), flag.ContinueOnError)
	t.Cleanup(func() { flag.CommandLine = saved })
	f := AddScenarioFlags()
	set := func(name, value string) {
		if err := flag.Set(name, value); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		dataset, seed string
		want, wantGen int64
	}{
		{"mnist", "7", 7, 17},
		{"cifar", "7", 7, 17},
		{"mnist", "0", 1, 11},
		{"cifar", "0", 2, 13},
	} {
		set("dataset", c.dataset)
		set("seed", c.seed)
		s, err := f.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		if s.Seed != c.want || s.GenCfg.Seed != c.wantGen {
			t.Errorf("%s -seed %s: Seed %d, GenCfg.Seed %d; want %d, %d",
				c.dataset, c.seed, s.Seed, s.GenCfg.Seed, c.want, c.wantGen)
		}
		def := CIFARScenario(9, 2)
		if c.dataset == "mnist" {
			def = MNISTScenario(9, 2)
		}
		if s.Attackers != def.Attackers || s.Gamma != def.Gamma || s.FL.Rounds != def.FL.Rounds ||
			s.Backend != nn.Float64 || s.ReportQuant != metrics.ReportFloat64 {
			t.Errorf("%s at default flags: attackers %d gamma %v rounds %d backend %v quant %v, want the scenario's",
				c.dataset, s.Attackers, s.Gamma, s.FL.Rounds, s.Backend, s.ReportQuant)
		}
	}
	set("attackers", "0")
	set("gamma", "3")
	set("rounds", "5")
	set("backend", "float32")
	set("report-quant", "int8")
	s, err := f.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if s.Attackers != 0 || s.Gamma != 3 || s.FL.Rounds != 5 || s.Backend != nn.Float32 || s.ReportQuant != metrics.ReportInt8 {
		t.Errorf("overrides: attackers %d gamma %v rounds %d backend %v quant %v",
			s.Attackers, s.Gamma, s.FL.Rounds, s.Backend, s.ReportQuant)
	}
	for _, bad := range [][2]string{{"backend", "float16"}, {"report-quant", "int4"}} {
		set(bad[0], bad[1])
		if _, err := f.Scenario(); err == nil {
			t.Errorf("-%s %s: no error", bad[0], bad[1])
		}
	}
}
