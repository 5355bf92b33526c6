package eval

import (
	"fmt"
	"strings"
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
func NinePairs() []Pair { return FullPairs()[:9] }

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

// cell measures m on t's test split and backdoor task; modeCell measures
// the model a defense mode leaves.
func (t *Trained) cell(m *nn.Sequential) Cell { return Cell{TA: t.ModelTA(m), AA: t.ModelAA(m)} }

func (t *Trained) modeCell(mode string) Cell {
	m, _ := t.DefendMode(mode)
	return t.cell(m)
}

// row appends a row and returns it; its maps are the table's.
func (t *Table) row(label string) Row {
	r := Row{Label: label, Cells: map[string]Cell{}, Extra: map[string]int{}}
	t.Rows = append(t.Rows, r)
	return r
}

func mnist(p Pair) Scenario { return MNISTScenario(p.VL, p.AL) }

// datasets are the three scenario constructors (Table IV, Fig. 9).
var datasets = []struct {
	name string
	of   func(victim, target int) Scenario
}{{"mnist", MNISTScenario}, {"fashion", FashionScenario}, {"cifar", CIFARScenario}}

// Sweep holds the axes the specs range over.
type Sweep struct {
	Pairs, NinePairs, SizePairs []Pair    // Tables I and V; II and III; VI
	Patterns, KLabels, Targets  []int     // Table VII; Fig. 3; Figs. 5 and 6
	Selects, Attackers          []int     // Figs. 7 and 8
	Deltas, Lambdas, VoteRates  []float64 // Fig. 6; Fig. 10; the vote-rate ablation
	// Pair is the task of Table IV, Fig. 9, the ablations and the adaptive
	// attacks.
	Pair Pair
}

// PaperSweep returns fedbench's axes: the reduced defaults or, with full,
// the paper's full pair sweeps, client selections and attacker counts.
func PaperSweep(full bool) Sweep {
	sw := Sweep{Pairs: QuickPairs(), NinePairs: QuickPairs(), SizePairs: QuickPairs(),
		Patterns: []int{1, 3, 5, 7, 9}, KLabels: []int{3, 5, 7}, Targets: []int{0, 2},
		Selects: []int{5, 15, 25}, Attackers: []int{1, 3, 6, 9},
		Deltas: []float64{5, 4, 3, 2.5, 2, 1.5, 1}, Lambdas: []float64{0, 0.01, 0.05},
		VoteRates: []float64{0.1, 0.3, 0.5, 0.7, 0.9}, Pair: Pair{9, 2}}
	if full {
		sw.Pairs, sw.NinePairs = FullPairs(), NinePairs()
		sw.Selects, sw.Attackers = []int{5, 10, 15, 20, 25}, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	return sw
}

// Specs returns the paper's tables and figures over sw, then the
// ablations and the adaptive attacks, in fedbench's order.
func Specs(sw Sweep) []Spec {
	return []Spec{
		{"table1", func(g *grid) func() string {
			return modeTable(g, "Table I — SynthMNIST: Training vs FP+AW vs All", sw.Pairs,
				[]string{"fp+aw", "all"}, mnist)
		}},
		{"table2", func(g *grid) func() string {
			return modeTable(g, "Table II — SynthFashion: Training vs FP vs FP+AW vs All", sw.NinePairs,
				[]string{"fp", "fp+aw", "all"}, func(p Pair) Scenario { return FashionScenario(p.VL, p.AL) })
		}},
		{"table3", func(g *grid) func() string {
			return modeTable(g, "Table III — SynthCIFAR + DBA: Training vs FP vs FP+AW vs All", sw.NinePairs,
				[]string{"fp", "fp+aw", "all"}, func(p Pair) Scenario { return CIFARScenario(p.VL, p.AL) })
		}},
		{"table4", func(g *grid) func() string {
			tbl := &Table{Title: "Table IV — defense comparison with Neural Cleanse", Modes: []string{"training", "neural-cleanse", "ours"}}
			for _, d := range datasets {
				row := tbl.row(d.name)
				g.after(d.of(sw.Pair.VL, sw.Pair.AL), func(t *Trained) {
					row.Cells["training"] = t.cell(t.Server.Model)
					row.Cells["neural-cleanse"] = t.cell(neuralCleanse(t))
					row.Cells["ours"] = t.modeCell("all")
				})
			}
			return tbl.Render
		}},
		{"table5", func(g *grid) func() string {
			tbl := &Table{Title: "Table V — pruning only: RAP vs MVP", Modes: []string{"training", "rap", "mvp"}}
			for _, p := range sw.Pairs {
				row := tbl.row(p.String())
				g.after(mnist(p), func(t *Trained) {
					row.Cells["training"] = t.cell(t.Server.Model)
					for _, method := range []core.PruneMethod{core.RAP, core.MVP} {
						cfg, _ := DefenseMode("fp")
						cfg.Method = method
						m, _ := t.Defend(cfg)
						row.Cells[strings.ToLower(method.String())] = t.cell(m)
					}
				})
			}
			return tbl.Render
		}},
		{"table6", func(g *grid) func() string {
			// AW alone on the small (8/16) and large (20/50) CNNs; N counts
			// zeroed weights.
			tbl := &Table{Title: "Table VI — AW only: small vs large NN",
				Modes:     []string{"small-training", "small-aw", "large-training", "large-aw"},
				ExtraCols: []string{"N-small", "N-large"}}
			for _, p := range sw.SizePairs {
				row := tbl.row(p.String())
				for _, size := range []string{"small", "large"} {
					size, s := size, mnist(p)
					if size == "large" {
						s.Build = nn.NewLargeCNN
					}
					g.after(s, func(t *Trained) {
						row.Cells[size+"-training"] = t.cell(t.Server.Model)
						m, rep := t.DefendMode("aw")
						row.Cells[size+"-aw"] = t.cell(m)
						row.Extra["N-"+size] = rep.AW.Zeroed
					})
				}
			}
			return tbl.Render
		}},
		{"table7", func(g *grid) func() string {
			tbl := &Table{Title: "Table VII — attack patterns (pixels) with fixed Δ=3",
				Modes: []string{"training", "fp", "fp+aw"}, ExtraCols: []string{"pruned", "zeroed"}}
			for _, n := range sw.Patterns {
				row := tbl.row(fmt.Sprintf("%d-pixel", n))
				s := MNISTScenario(9, 1)
				s.Poison.Trigger = dataset.PixelPattern(n, dataset.Shape{C: 1, H: 16, W: 16})
				g.after(s, func(t *Trained) {
					row.Cells["training"] = t.cell(t.Server.Model)
					m, rep := t.DefendMode("fp")
					row.Cells["fp"], row.Extra["pruned"] = t.cell(m), len(rep.Prune.Pruned)
					// A single clip at the paper's fixed Δ=3, no accuracy-guarded
					// descent.
					cfg, _ := DefenseMode("fp+aw")
					cfg.AW = core.AWConfig{StartDelta: 3, MinDelta: 3, Eps: 1, MinAccuracy: -1}
					m, rep = t.Defend(cfg)
					row.Cells["fp+aw"], row.Extra["zeroed"] = t.cell(m), rep.AW.Zeroed
				})
			}
			return tbl.Render
		}},
		{"fig3", func(g *grid) func() string {
			fig := &Figure{Title: "Fig. 3 — training under K-label distributions"}
			for _, k := range sw.KLabels {
				s := MNISTScenario(9, 1)
				s.KLabels = k
				curve(g, fig, s, fmt.Sprintf("k=%d", k))
			}
			return fig.Render
		}},
		{"fig5", func(g *grid) func() string {
			parts := make([][]Series, len(sw.Targets))
			for i, target := range sw.Targets {
				i, target := i, target
				g.after(MNISTScenario(9, target), func(t *Trained) {
					li := t.Server.Model.LastConvIndex()
					for _, method := range []core.PruneMethod{core.RAP, core.MVP} {
						cfg := core.DefaultPipelineConfig()
						cfg.Method = method
						order := core.GlobalPruneOrder(t.Server.Model, fl.ReportClients(t.Participants), li, cfg)
						curves := core.PruneSweep(t.Server.Model.Clone(), li, order, t.TestEvaluator(), t.ASREvaluator())
						parts[i] = append(parts[i], sweep(fmt.Sprintf("%s target %d", method, target), nil, curves)...)
					}
				})
			}
			return figure("Fig. 5 — pruning curves (RAP vs MVP)", parts)
		}},
		{"fig6", func(g *grid) func() string {
			// The AW Δ sweep on the pruned model, no fine-tuning; x = 0 is the
			// unclipped model.
			parts := make([][]Series, len(sw.Targets))
			for i, target := range sw.Targets {
				i, target := i, target
				g.after(MNISTScenario(9, target), func(t *Trained) {
					m, rep := t.DefendMode("fp")
					for _, li := range core.DefaultAWLayers(m, rep.TargetLayer) {
						curves := core.AWSweep(m.Clone(), li, sw.Deltas, t.TestEvaluator(), t.ASREvaluator())
						parts[i] = append(parts[i], sweep(fmt.Sprintf("target %d layer %d", target, li),
							append([]float64{0}, sw.Deltas...), curves)...)
					}
				})
			}
			return figure("Fig. 6 — adjusting extreme weights vs Δ", parts)
		}},
		{"fig7", func(g *grid) func() string {
			return points(g, "Fig. 7 — random client selection (50 clients, 10% attackers)", sw.Selects,
				[]string{"TA after training", "AA after training", "TA after defense", "AA after defense"},
				func(sel int) Scenario {
					s := MNISTScenario(9, 2)
					s.Clients, s.Attackers, s.PerClient = 50, 5, 40
					s.GenCfg.TrainPerClass = 220
					s.FL.SelectPerRound, s.FL.Rounds = sel, 30
					return s
				}, func(t *Trained) []Cell { return []Cell{t.cell(t.Server.Model), t.modeCell("all")} })
		}},
		{"fig8", func(g *grid) func() string {
			return points(g, "Fig. 8 — number of attackers", sw.Attackers,
				[]string{"TA pruning only", "AA pruning only", "TA full defense", "AA full defense"},
				func(n int) Scenario {
					s := MNISTScenario(9, 2)
					s.Attackers = n
					return s
				}, func(t *Trained) []Cell { return []Cell{t.modeCell("fp"), t.modeCell("all")} })
		}},
		{"fig9", func(g *grid) func() string {
			// Training is the summed round spans of the federation's training;
			// each defense stage is the "All" pipeline's own span
			// (Report.Timing).
			rows := make([]string, len(datasets))
			for i, d := range datasets {
				i, name := i, d.name
				g.add(d.of(sw.Pair.VL, sw.Pair.AL), setup{}, arm{after: func(t *Trained, training time.Duration) {
					_, rep := t.Defend(core.DefaultPipelineConfig())
					rows[i] = fmt.Sprintf("%-8s %10.2f %10.2f %10.2f %10.2f\n", name, training.Seconds(),
						(rep.Timing.Collect + rep.Timing.Sweep).Seconds(), rep.Timing.FineTune.Seconds(), rep.Timing.AW.Seconds())
				}})
			}
			return func() string {
				return "Fig. 9 — wall-clock seconds per phase\n" + fmt.Sprintf("%-8s %10s %10s %10s %10s\n",
					"dataset", "training", "pruning", "fine-tune", "aw") + strings.Join(rows, "")
			}
		}},
		{"fig10", func(g *grid) func() string {
			// Training with an L2 penalty of weight λ on the last conv layer.
			fig := &Figure{Title: "Fig. 10 — last-conv L2 regularization λ"}
			for _, lambda := range sw.Lambdas {
				s := MNISTScenario(9, 2)
				s.LastConvL2 = lambda
				curve(g, fig, s, fmt.Sprintf("λ=%g", lambda))
			}
			return fig.Render
		}},
		{"ablation-mask", func(g *grid) func() string {
			// Masked pruning (the default: pruned units stay zero through
			// fine-tuning) vs zero-only pruning (weights zeroed once, free to
			// regrow). Fine-tuning runs with the attackers present, so
			// resurrection is a live risk; both are measured after it.
			tbl := &Table{Title: "Ablation — masked vs zero-only pruning (after fine-tuning)", Modes: []string{"training", "masked", "zero-only"}}
			row := tbl.row(sw.Pair.String())
			g.after(mnist(sw.Pair), func(t *Trained) {
				row.Cells["training"] = t.cell(t.Server.Model)
				li := t.Server.Model.LastConvIndex()
				cfg := core.DefaultPipelineConfig()
				order := core.GlobalPruneOrder(t.Server.Model, fl.ReportClients(t.Participants), li, cfg)
				evalFn := t.ValidationEvaluator()
				masked := t.Server.Model.Clone()
				res := core.PruneToThreshold(masked, li, order, evalFn, evalFn.Evaluate(masked)-cfg.MaxAccuracyDrop)
				core.FineTune(masked, res.FinalAccuracy, t.Server, cfg.FineTuneRounds, cfg.FineTunePatience, evalFn)
				row.Cells["masked"] = t.cell(masked)
				zeroOnly := t.Server.Model.Clone()
				zeroUnits(zeroOnly, li, res.Pruned)
				core.FineTune(zeroOnly, evalFn.Evaluate(zeroOnly), t.Server, cfg.FineTuneRounds, cfg.FineTunePatience, evalFn)
				row.Cells["zero-only"] = t.cell(zeroOnly)
			})
			return tbl.Render
		}},
		{"ablation-rate", func(g *grid) func() string {
			// MVP's vote rate p under FP+AW; the paper reports 0.3-0.7 as the
			// useful band.
			tbl := &Table{Title: "Ablation — MVP vote rate p (FP+AW)", Modes: []string{"fp+aw"}, ExtraCols: []string{"pruned"}}
			for _, p := range sw.VoteRates {
				p, row := p, tbl.row(fmt.Sprintf("p=%.1f", p))
				g.after(mnist(sw.Pair), func(t *Trained) {
					cfg, _ := DefenseMode("fp+aw")
					cfg.VoteRate = p
					m, rep := t.Defend(cfg)
					row.Cells["fp+aw"], row.Extra["pruned"] = t.cell(m), len(rep.Prune.Pruned)
				})
			}
			return tbl.Render
		}},
		{"ablation-aw", func(g *grid) func() string {
			// AW on the last conv layer only (the paper's literal procedure) vs
			// the default, which adds the first dense layer after it.
			tbl := &Table{Title: "Ablation — AW target layers (no fine-tuning)", Modes: []string{"training", "last-conv", "conv+dense"}}
			row := tbl.row(sw.Pair.String())
			g.after(mnist(sw.Pair), func(t *Trained) {
				row.Cells["training"] = t.cell(t.Server.Model)
				cfg, _ := DefenseMode("fp+aw")
				cfg.AWLayers = []int{t.Server.Model.LastConvIndex()}
				m, _ := t.Defend(cfg)
				row.Cells["last-conv"] = t.cell(m)
				row.Cells["conv+dense"] = t.modeCell("fp+aw")
			})
			return tbl.Render
		}},
		{"adaptive", func(g *grid) func() string { return adaptiveTable(g, mnist(sw.Pair)).Render }},
	}
}

// modeTable plans a paper-style table of defense modes over one scenario
// per pair.
func modeTable(g *grid, title string, pairs []Pair, modes []string, scen func(Pair) Scenario) func() string {
	tbl := &Table{Title: title, Modes: append([]string{"training"}, modes...)}
	for _, p := range pairs {
		row := tbl.row(p.String())
		g.after(scen(p), func(t *Trained) {
			row.Cells["training"] = t.cell(t.Server.Model)
			for _, mode := range modes {
				row.Cells[mode] = t.modeCell(mode)
			}
		})
	}
	return tbl.Render
}

// curve plans an observer of s's training that traces TA and AA after
// every round, as the series "TA label" and "AA label" of fig.
func curve(g *grid, fig *Figure, s Scenario, label string) {
	i := len(fig.Series)
	fig.Series = append(fig.Series, Series{Name: "TA " + label}, Series{Name: "AA " + label})
	g.add(s, setup{}, arm{observe: func(t *Trained, round int) {
		ta, aa := &fig.Series[i], &fig.Series[i+1]
		ta.X, ta.Y = append(ta.X, float64(round)), append(ta.Y, t.TA())
		aa.X, aa.Y = append(aa.X, float64(round)), append(aa.Y, t.AA())
	}})
}

// points plans one cell per x and a figure with one point per x on each
// named series: the cells' TA and AA, in order.
func points(g *grid, title string, xs []int, names []string, scen func(x int) Scenario, cells func(*Trained) []Cell) func() string {
	fig := &Figure{Title: title}
	for _, name := range names {
		fig.Series = append(fig.Series, Series{Name: name, X: make([]float64, len(xs)), Y: make([]float64, len(xs))})
	}
	for j, x := range xs {
		j := j
		for i := range fig.Series {
			fig.Series[i].X[j] = float64(x)
		}
		g.after(scen(x), func(t *Trained) {
			for i, c := range cells(t) {
				fig.Series[2*i].Y[j], fig.Series[2*i+1].Y[j] = c.TA, c.AA
			}
		})
	}
	return fig.Render
}

// sweep turns a sweep's TA and AA curves (fractions) into percent series;
// nil xs numbers the steps from 0.
func sweep(label string, xs []float64, curves [][]float64) []Series {
	for _, c := range curves {
		for i := range c {
			c[i] *= 100
		}
	}
	if xs == nil {
		for i := range curves[0] {
			xs = append(xs, float64(i))
		}
	}
	return []Series{{Name: "TA " + label, X: xs, Y: curves[0]}, {Name: "AA " + label, X: xs, Y: curves[1]}}
}

// figure renders the series each cell filled, in plan order.
func figure(title string, parts [][]Series) func() string {
	return func() string {
		fig := &Figure{Title: title}
		for _, p := range parts {
			fig.Series = append(fig.Series, p...)
		}
		return fig.Render()
	}
}

// neuralCleanse reverses a trigger for every label on the validation split
// and mitigates on a clone with the flagged candidates or, when none is
// flagged, the smallest-norm one: NC's best shot, as the paper compares
// with NC's best result.
func neuralCleanse(t *Trained) *nn.Sequential {
	m := t.Server.Model.Clone()
	trigs := neuralcleanse.ReverseAll(m, t.Validation, neuralcleanse.DefaultConfig())
	flagged := neuralcleanse.DetectOutliersMAD(trigs, 2)
	if len(flagged) == 0 {
		best := 0
		for i, tr := range trigs {
			if tr.MaskNorm < trigs[best].MaskNorm {
				best = i
			}
		}
		flagged = []int{best}
	}
	evalFn := t.ValidationEvaluator()
	base := evalFn.Evaluate(m)
	for _, label := range flagged {
		neuralcleanse.Mitigate(m, trigs[label], t.Validation, evalFn, base-0.05)
	}
	return m
}

// zeroUnits zeroes the parameters of the given output units without
// installing a prune mask.
func zeroUnits(m *nn.Sequential, layerIdx int, units []int) {
	switch l := m.Layer(layerIdx).(type) {
	case *nn.Conv2D:
		fanIn := l.W.Value.Dim(1)
		for _, u := range units {
			for j := 0; j < fanIn; j++ {
				l.W.Value.Data[u*fanIn+j] = 0
			}
			l.B.Value.Data[u] = 0
		}
	case *nn.Dense:
		for _, u := range units {
			for i := 0; i < l.In(); i++ {
				l.W.Value.Data[i*l.Out()+u] = 0
			}
			l.B.Value.Data[u] = 0
		}
	default:
		panic(fmt.Sprintf("eval: zeroUnits on non-prunable layer %d", layerIdx))
	}
}

// adaptiveTable plans the §VI-B adaptive attacks on s against the full
// defense: the rank-manipulating attacker (Attack 1), the AW-aware
// self-clipping attacker, and the pruning-aware attacker (Attack 2), which
// is handed the true prune order. The paper calls obtaining that order
// "nearly impossible"; this is the worst case. The order comes from the
// baseline federation, declared first so that it trains first.
func adaptiveTable(g *grid, s Scenario) *Table {
	tbl := &Table{Title: "Discussion §VI-B — adaptive attacks vs the full defense", Modes: []string{"training", "all"}}
	var avoidLayer int
	var avoid []int
	g.after(s, func(t *Trained) {
		avoidLayer = t.Server.Model.LastConvIndex()
		order := core.GlobalPruneOrder(t.Server.Model, fl.ReportClients(t.Participants), avoidLayer, core.DefaultPipelineConfig())
		avoid = order[:len(order)/2]
	})
	for _, su := range []setup{
		{"baseline", nil},
		{"rank-manipulating", func(a *fl.Attacker) {
			a.SetDefenseBehavior(fl.AttackerDefenseBehavior{ManipulateRanks: true})
		}},
		{"aw-aware self-clip", func(a *fl.Attacker) { a.SelfClipDelta = 3 }},
		{"pruning-aware", func(a *fl.Attacker) { a.AvoidLayer, a.AvoidUnits = avoidLayer, append([]int(nil), avoid...) }},
	} {
		row := tbl.row(su.name)
		g.add(s, su, arm{after: func(t *Trained, _ time.Duration) {
			row.Cells["training"] = t.cell(t.Server.Model)
			row.Cells["all"] = t.modeCell("all")
		}})
	}
	return tbl
}

// AdaptiveAttackTable evaluates the §VI-B adaptive attacks against the
// full defense on the MNIST task pair (adaptiveTable).
func AdaptiveAttackTable(pair Pair) *Table {
	var tbl *Table
	RunGrid([]Spec{{"adaptive", func(g *grid) func() string {
		tbl = adaptiveTable(g, mnist(pair))
		return tbl.Render
	}}}, nn.Float64, nil)
	return tbl
}
