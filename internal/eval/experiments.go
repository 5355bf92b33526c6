package eval

import (
	"fmt"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/neuralcleanse"
	"github.com/fedcleanse/fedcleanse/internal/nn"
)

// Pair is one (victim label, attack label) backdoor task.
type Pair struct {
	VL, AL int
}

// String implements fmt.Stringer.
func (p Pair) String() string { return fmt.Sprintf("%d->%d", p.VL, p.AL) }

// FullPairs returns the paper's 18 MNIST settings: victim 9 against every
// other attack label, and every victim against attack label 9.
func FullPairs() []Pair {
	var out []Pair
	for al := 0; al <= 8; al++ {
		out = append(out, Pair{9, al})
	}
	for vl := 0; vl <= 8; vl++ {
		out = append(out, Pair{vl, 9})
	}
	return out
}

// NinePairs returns the paper's Table II/III settings: victim 9 against
// every other label.
func NinePairs() []Pair {
	var out []Pair
	for al := 0; al <= 8; al++ {
		out = append(out, Pair{9, al})
	}
	return out
}

// QuickPairs is the reduced sweep used by the benchmark defaults (the full
// sweeps are available through cmd/fedbench -full).
func QuickPairs() []Pair { return []Pair{{9, 0}, {9, 2}, {4, 9}} }

// DefenseMode returns the default pipeline configuration of one of the
// paper's defense modes: "fp" (pruning only), "aw" (adjusting weights
// only), "fp+aw" (no fine-tuning) or "all" (the complete Algorithm 1).
func DefenseMode(mode string) (core.PipelineConfig, error) {
	cfg := core.DefaultPipelineConfig()
	switch mode {
	case "fp":
		cfg.FineTuneRounds = 0
		cfg.SkipAW = true
	case "aw":
		cfg.FineTuneRounds = 0
		cfg.SkipPrune = true
	case "fp+aw":
		cfg.FineTuneRounds = 0
	case "all":
	default:
		return cfg, fmt.Errorf("unknown defense mode %q", mode)
	}
	return cfg, nil
}

// DefendMode runs one of the paper's defense modes (DefenseMode) on a
// clone of the trained global model; an unknown mode panics.
func (t *Trained) DefendMode(mode string) (*nn.Sequential, core.Report) {
	cfg, err := DefenseMode(mode)
	if err != nil {
		panic("eval: " + err.Error())
	}
	return t.Defend(cfg)
}

// modeTable runs the given defense modes over one scenario per pair and
// assembles a paper-style table. scen maps a pair to its scenario.
func modeTable(title string, pairs []Pair, modes []string, scen func(Pair) Scenario) *Table {
	tbl := &Table{Title: title, Modes: append([]string{"training"}, modes...)}
	for _, p := range pairs {
		t := Run(scen(p))
		row := Row{Label: p.String(), Cells: map[string]Cell{
			"training": {TA: t.TA(), AA: t.AA()},
		}}
		for _, mode := range modes {
			m, _ := t.DefendMode(mode)
			row.Cells[mode] = Cell{TA: t.ModelTA(m), AA: t.ModelAA(m)}
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

// TableI reproduces the paper's Table I: MNIST, Training vs FP+AW vs All.
func TableI(pairs []Pair) *Table {
	return modeTable("Table I — SynthMNIST: Training vs FP+AW vs All", pairs,
		[]string{"fp+aw", "all"},
		func(p Pair) Scenario { return MNISTScenario(p.VL, p.AL) })
}

// TableII reproduces Table II: Fashion-MNIST, Training/FP/FP+AW/All.
func TableII(pairs []Pair) *Table {
	return modeTable("Table II — SynthFashion: Training vs FP vs FP+AW vs All", pairs,
		[]string{"fp", "fp+aw", "all"},
		func(p Pair) Scenario { return FashionScenario(p.VL, p.AL) })
}

// TableIII reproduces Table III: CIFAR-10 under the Distributed Backdoor
// Attack, Training/FP/FP+AW/All.
func TableIII(pairs []Pair) *Table {
	return modeTable("Table III — SynthCIFAR + DBA: Training vs FP vs FP+AW vs All", pairs,
		[]string{"fp", "fp+aw", "all"},
		func(p Pair) Scenario { return CIFARScenario(p.VL, p.AL) })
}

// TableIV reproduces Table IV: our full defense vs Neural Cleanse on all
// three datasets (one representative pair per dataset).
func TableIV(pair Pair) *Table {
	tbl := &Table{
		Title: "Table IV — defense comparison with Neural Cleanse",
		Modes: []string{"training", "neural-cleanse", "ours"},
	}
	scens := []struct {
		name string
		s    Scenario
	}{
		{"mnist", MNISTScenario(pair.VL, pair.AL)},
		{"fashion", FashionScenario(pair.VL, pair.AL)},
		{"cifar", CIFARScenario(pair.VL, pair.AL)},
	}
	for _, sc := range scens {
		t := Run(sc.s)
		row := Row{Label: sc.name, Cells: map[string]Cell{
			"training": {TA: t.TA(), AA: t.AA()},
		}}
		// Neural Cleanse: reverse a trigger for every label on the test
		// split, mitigate using the flagged (or overall best) candidate.
		ncModel := t.Server.Model.Clone()
		cfg := neuralcleanse.DefaultConfig()
		trigs := neuralcleanse.ReverseAll(ncModel, t.Validation, cfg)
		flagged := neuralcleanse.DetectOutliersMAD(trigs, 2)
		if len(flagged) == 0 {
			// Fall back to the smallest-norm candidate, giving NC its best
			// shot (the paper selects NC's best result for comparison).
			best := 0
			for i, tr := range trigs {
				if tr.MaskNorm < trigs[best].MaskNorm {
					best = i
				}
			}
			flagged = []int{best}
		}
		evalFn := t.ValidationEvaluator()
		base := evalFn.Evaluate(ncModel)
		for _, label := range flagged {
			neuralcleanse.Mitigate(ncModel, trigs[label], t.Validation, evalFn, base-0.05)
		}
		row.Cells["neural-cleanse"] = Cell{TA: t.ModelTA(ncModel), AA: t.ModelAA(ncModel)}

		ours, _ := t.DefendMode("all")
		row.Cells["ours"] = Cell{TA: t.ModelTA(ours), AA: t.ModelAA(ours)}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

// TableV reproduces Table V: pruning-only defense, RAP vs MVP, on MNIST.
func TableV(pairs []Pair) *Table {
	tbl := &Table{
		Title: "Table V — pruning only: RAP vs MVP",
		Modes: []string{"training", "rap", "mvp"},
	}
	for _, p := range pairs {
		t := Run(MNISTScenario(p.VL, p.AL))
		row := Row{Label: p.String(), Cells: map[string]Cell{
			"training": {TA: t.TA(), AA: t.AA()},
		}}
		for _, method := range []core.PruneMethod{core.RAP, core.MVP} {
			cfg := core.DefaultPipelineConfig()
			cfg.Method = method
			cfg.FineTuneRounds = 0
			cfg.SkipAW = true
			m, _ := t.Defend(cfg)
			name := "rap"
			if method == core.MVP {
				name = "mvp"
			}
			row.Cells[name] = Cell{TA: t.ModelTA(m), AA: t.ModelAA(m)}
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

// TableVI reproduces Table VI: adjusting extreme weights alone on the
// small (8/16) and large (20/50) CNNs. The Extra column N counts zeroed
// weights.
func TableVI(pairs []Pair) *Table {
	tbl := &Table{
		Title:     "Table VI — AW only: small vs large NN",
		Modes:     []string{"small-training", "small-aw", "large-training", "large-aw"},
		ExtraCols: []string{"N-small", "N-large"},
	}
	for _, p := range pairs {
		row := Row{Label: p.String(), Cells: map[string]Cell{}, Extra: map[string]int{}}
		for _, size := range []string{"small", "large"} {
			s := MNISTScenario(p.VL, p.AL)
			if size == "large" {
				s.Build = nn.NewLargeCNN
			}
			t := Run(s)
			row.Cells[size+"-training"] = Cell{TA: t.TA(), AA: t.AA()}
			m, rep := t.DefendMode("aw")
			row.Cells[size+"-aw"] = Cell{TA: t.ModelTA(m), AA: t.ModelAA(m)}
			row.Extra["N-"+size] = rep.AW.Zeroed
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

// TableVII reproduces Table VII: federated pruning then AW under the five
// pixel-pattern sizes, with a fixed Δ=3 clip as in the paper.
func TableVII(patterns []int) *Table {
	tbl := &Table{
		Title:     "Table VII — attack patterns (pixels) with fixed Δ=3",
		Modes:     []string{"training", "fp", "fp+aw"},
		ExtraCols: []string{"pruned", "zeroed"},
	}
	for _, n := range patterns {
		s := MNISTScenario(9, 1)
		s.Poison.Trigger = dataset.PixelPattern(n, dataset.Shape{C: 1, H: 16, W: 16})
		t := Run(s)
		row := Row{Label: fmt.Sprintf("%d-pixel", n), Cells: map[string]Cell{
			"training": {TA: t.TA(), AA: t.AA()},
		}, Extra: map[string]int{}}

		fpModel, fpRep := t.DefendMode("fp")
		row.Cells["fp"] = Cell{TA: t.ModelTA(fpModel), AA: t.ModelAA(fpModel)}
		row.Extra["pruned"] = len(fpRep.Prune.Pruned)

		cfg := core.DefaultPipelineConfig()
		cfg.FineTuneRounds = 0
		// Fixed threshold index Δ=3 (paper Table VII): a single clip, no
		// accuracy-guarded descent.
		cfg.AW = core.AWConfig{StartDelta: 3, MinDelta: 3, Eps: 1, MinAccuracy: -1}
		awModel, awRep := t.Defend(cfg)
		row.Cells["fp+aw"] = Cell{TA: t.ModelTA(awModel), AA: t.ModelAA(awModel)}
		row.Extra["zeroed"] = awRep.AW.Zeroed
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

// Fig3 reproduces Figure 3: training curves (TA and AA per round) under
// K-label distributions.
func Fig3(ks []int) *Figure {
	fig := &Figure{Title: "Fig. 3 — training under K-label distributions"}
	for _, k := range ks {
		s := MNISTScenario(9, 1)
		s.KLabels = k
		t := Build(s)
		var xs, tas, aas []float64
		t.Server.Train(func(round int) {
			xs = append(xs, float64(round))
			tas = append(tas, t.TA())
			aas = append(aas, t.AA())
		})
		fig.Series = append(fig.Series,
			Series{Name: fmt.Sprintf("TA k=%d", k), X: xs, Y: tas},
			Series{Name: fmt.Sprintf("AA k=%d", k), X: xs, Y: aas},
		)
	}
	return fig
}

// toPercent scales sweep curves from fractions to percent in place.
func toPercent(curves [][]float64) {
	for _, c := range curves {
		for i := range c {
			c[i] *= 100
		}
	}
}

// Fig5 reproduces Figure 5: pruning curves (TA and AA vs number of pruned
// neurons) for RAP and MVP on two attack targets.
func Fig5(targets []int) *Figure {
	fig := &Figure{Title: "Fig. 5 — pruning curves (RAP vs MVP)"}
	for _, target := range targets {
		t := Run(MNISTScenario(9, target))
		layerIdx := t.Server.Model.LastConvIndex()
		clients := fl.ReportClients(t.Participants)
		for _, method := range []core.PruneMethod{core.RAP, core.MVP} {
			cfg := core.DefaultPipelineConfig()
			cfg.Method = method
			order := core.GlobalPruneOrder(t.Server.Model, clients, layerIdx, cfg)
			m := t.Server.Model.Clone()
			// Cached evaluators: the sweep replays only suffix layers per
			// prune, with scores identical to ModelTA/ModelAA (scaled below).
			curves := core.PruneSweep(m, layerIdx, order, t.TestEvaluator(), t.ASREvaluator())
			toPercent(curves)
			xs := make([]float64, len(curves[0]))
			for i := range xs {
				xs[i] = float64(i)
			}
			fig.Series = append(fig.Series,
				Series{Name: fmt.Sprintf("TA %s target %d", method, target), X: xs, Y: curves[0]},
				Series{Name: fmt.Sprintf("AA %s target %d", method, target), X: xs, Y: curves[1]},
			)
		}
	}
	return fig
}

// Fig6 reproduces Figure 6: TA and AA along the AW Δ sweep for two attack
// targets (pruned model, no fine-tuning).
func Fig6(targets []int, deltas []float64) *Figure {
	fig := &Figure{Title: "Fig. 6 — adjusting extreme weights vs Δ"}
	for _, target := range targets {
		t := Run(MNISTScenario(9, target))
		m, rep := t.DefendMode("fp")
		for _, li := range core.DefaultAWLayers(m, rep.TargetLayer) {
			mm := m.Clone()
			curves := core.AWSweep(mm, li, deltas, t.TestEvaluator(), t.ASREvaluator())
			toPercent(curves)
			xs := append([]float64{0}, deltas...) // 0 = unclipped original
			fig.Series = append(fig.Series,
				Series{Name: fmt.Sprintf("TA target %d layer %d", target, li), X: xs, Y: curves[0]},
				Series{Name: fmt.Sprintf("AA target %d layer %d", target, li), X: xs, Y: curves[1]},
			)
		}
	}
	return fig
}

// Fig7 reproduces Figure 7: the defense under random client selection —
// 50 clients, 10% attackers, training with 5..25 selected per round, then
// the full defense.
func Fig7(selects []int) *Figure {
	fig := &Figure{Title: "Fig. 7 — random client selection (50 clients, 10% attackers)"}
	var xs, taTrain, aaTrain, taDef, aaDef []float64
	for _, sel := range selects {
		s := MNISTScenario(9, 2)
		s.Clients = 50
		s.Attackers = 5
		s.PerClient = 40
		s.GenCfg.TrainPerClass = 220
		s.FL.SelectPerRound = sel
		s.FL.Rounds = 30
		t := Run(s)
		xs = append(xs, float64(sel))
		taTrain = append(taTrain, t.TA())
		aaTrain = append(aaTrain, t.AA())
		m, _ := t.DefendMode("all")
		taDef = append(taDef, t.ModelTA(m))
		aaDef = append(aaDef, t.ModelAA(m))
	}
	fig.Series = []Series{
		{Name: "TA after training", X: xs, Y: taTrain},
		{Name: "AA after training", X: xs, Y: aaTrain},
		{Name: "TA after defense", X: xs, Y: taDef},
		{Name: "AA after defense", X: xs, Y: aaDef},
	}
	return fig
}

// Fig8 reproduces Figure 8: defense performance against 1..N attackers of
// a 10-client population — pruning-only vs the complete defense.
func Fig8(attackerCounts []int) *Figure {
	fig := &Figure{Title: "Fig. 8 — number of attackers"}
	var xs, taFP, aaFP, taAll, aaAll []float64
	for _, n := range attackerCounts {
		s := MNISTScenario(9, 2)
		s.Attackers = n
		t := Run(s)
		xs = append(xs, float64(n))
		mFP, _ := t.DefendMode("fp")
		taFP = append(taFP, t.ModelTA(mFP))
		aaFP = append(aaFP, t.ModelAA(mFP))
		mAll, _ := t.DefendMode("all")
		taAll = append(taAll, t.ModelTA(mAll))
		aaAll = append(aaAll, t.ModelAA(mAll))
	}
	fig.Series = []Series{
		{Name: "TA pruning only", X: xs, Y: taFP},
		{Name: "AA pruning only", X: xs, Y: aaFP},
		{Name: "TA full defense", X: xs, Y: taAll},
		{Name: "AA full defense", X: xs, Y: aaAll},
	}
	return fig
}

// PhaseTiming records wall-clock seconds per defense phase (Figure 9).
type PhaseTiming struct {
	Dataset                           string
	Training, Pruning, FineTuning, AW float64
}

// Fig9 measures the wall-clock time of each phase on all three datasets:
// training around Run, and each defense stage of the paper's "All"
// configuration as RunPipeline's own spans timed it (Report.Timing).
func Fig9() []PhaseTiming {
	var out []PhaseTiming
	scens := []struct {
		name string
		s    Scenario
	}{
		{"mnist", MNISTScenario(9, 2)},
		{"fashion", FashionScenario(9, 2)},
		{"cifar", CIFARScenario(9, 2)},
	}
	for _, sc := range scens {
		start := time.Now()
		t := Run(sc.s)
		training := time.Since(start).Seconds()
		_, rep := t.Defend(core.DefaultPipelineConfig())
		out = append(out, PhaseTiming{
			Dataset:    sc.name,
			Training:   training,
			Pruning:    (rep.Timing.Collect + rep.Timing.Sweep).Seconds(),
			FineTuning: rep.Timing.FineTune.Seconds(),
			AW:         rep.Timing.AW.Seconds(),
		})
	}
	return out
}

// Fig10 reproduces Figure 10: training with an L2 penalty of weight λ on
// the last convolutional layer, tracing TA and AA per round.
func Fig10(lambdas []float64) *Figure {
	fig := &Figure{Title: "Fig. 10 — last-conv L2 regularization λ"}
	for _, lambda := range lambdas {
		s := MNISTScenario(9, 2)
		s.LastConvL2 = lambda
		t := Build(s)
		var xs, tas, aas []float64
		t.Server.Train(func(round int) {
			xs = append(xs, float64(round))
			tas = append(tas, t.TA())
			aas = append(aas, t.AA())
		})
		fig.Series = append(fig.Series,
			Series{Name: fmt.Sprintf("TA λ=%g", lambda), X: xs, Y: tas},
			Series{Name: fmt.Sprintf("AA λ=%g", lambda), X: xs, Y: aas},
		)
	}
	return fig
}

// RenderTimings formats Fig. 9 measurements.
func RenderTimings(ts []PhaseTiming) string {
	out := "Fig. 9 — wall-clock seconds per phase\n"
	out += fmt.Sprintf("%-8s %10s %10s %10s %10s\n", "dataset", "training", "pruning", "fine-tune", "aw")
	for _, t := range ts {
		out += fmt.Sprintf("%-8s %10.2f %10.2f %10.2f %10.2f\n",
			t.Dataset, t.Training, t.Pruning, t.FineTuning, t.AW)
	}
	return out
}
