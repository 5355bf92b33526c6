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
	return t.Defend(modeConfig(mode))
}

// modeConfig is DefenseMode's configuration; an unknown mode panics.
func modeConfig(mode string) core.PipelineConfig {
	cfg, err := DefenseMode(mode)
	if err != nil {
		panic("eval: " + err.Error())
	}
	return cfg
}

// cell measures m on t's test split and backdoor task as column arm of
// row; trained measures the trained global model, as column "training".
func (t *Trained) cell(row, arm string, m *nn.Sequential) Cell {
	return Cell{Row: row, Arm: arm, TA: t.ModelTA(m), AA: t.ModelAA(m)}
}

func (t *Trained) trained(row string) Cell { return t.cell(row, "training", t.Server.Model) }

// defense measures the model cfg's defense leaves, with its report's
// counts.
func (t *Trained) defense(row, arm string, cfg core.PipelineConfig) Cell {
	m, rep := t.Defend(cfg)
	c := t.cell(row, arm, m)
	c.Pruned, c.Zeroed, c.FineTuned, c.Delta = len(rep.Prune.Pruned), rep.AW.Zeroed, rep.FineTune.Rounds, rep.AW.FinalDelta
	return c
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
		{ID: "table1", Title: "Table I — SynthMNIST: Training vs FP+AW vs All", plan: func(g *grid) {
			modeTable(g, sw.Pairs, []string{"fp+aw", "all"}, mnist)
		}},
		{ID: "table2", Title: "Table II — SynthFashion: Training vs FP vs FP+AW vs All", plan: func(g *grid) {
			modeTable(g, sw.NinePairs, []string{"fp", "fp+aw", "all"}, func(p Pair) Scenario { return FashionScenario(p.VL, p.AL) })
		}},
		{ID: "table3", Title: "Table III — SynthCIFAR + DBA: Training vs FP vs FP+AW vs All", plan: func(g *grid) {
			modeTable(g, sw.NinePairs, []string{"fp", "fp+aw", "all"}, func(p Pair) Scenario { return CIFARScenario(p.VL, p.AL) })
		}},
		{ID: "table4", Title: "Table IV — defense comparison with Neural Cleanse", plan: func(g *grid) {
			for _, d := range datasets {
				row := d.name
				g.after(d.of(sw.Pair.VL, sw.Pair.AL), func(t *Trained) []Cell {
					return []Cell{t.trained(row), t.cell(row, "neural-cleanse", neuralCleanse(t)), t.defense(row, "ours", modeConfig("all"))}
				})
			}
		}},
		{ID: "table5", Title: "Table V — pruning only: RAP vs MVP", plan: func(g *grid) {
			for _, p := range sw.Pairs {
				row := p.String()
				g.after(mnist(p), func(t *Trained) []Cell {
					cells := []Cell{t.trained(row)}
					for _, method := range []core.PruneMethod{core.RAP, core.MVP} {
						cfg := modeConfig("fp")
						cfg.Method = method
						cells = append(cells, t.defense(row, strings.ToLower(method.String()), cfg))
					}
					return cells
				})
			}
		}},
		{ID: "table6", Title: "Table VI — AW only: small vs large NN",
			counts: []count{{"N-small", "small-aw", zeroedCount}, {"N-large", "large-aw", zeroedCount}},
			plan: func(g *grid) {
				// AW alone on the small (8/16) and large (20/50) CNNs; N counts
				// zeroed weights.
				for _, p := range sw.SizePairs {
					row := p.String()
					for _, size := range []string{"small", "large"} {
						size, s := size, mnist(p)
						if size == "large" {
							s.Build = nn.NewLargeCNN
						}
						g.after(s, func(t *Trained) []Cell {
							return []Cell{t.cell(row, size+"-training", t.Server.Model), t.defense(row, size+"-aw", modeConfig("aw"))}
						})
					}
				}
			}},
		{ID: "table7", Title: "Table VII — attack patterns (pixels) with fixed Δ=3",
			counts: []count{{"pruned", "fp", prunedCount}, {"zeroed", "fp+aw", zeroedCount}},
			plan: func(g *grid) {
				for _, n := range sw.Patterns {
					row, s := fmt.Sprintf("%d-pixel", n), MNISTScenario(9, 1)
					s.Poison.Trigger = dataset.PixelPattern(n, dataset.Shape{C: 1, H: 16, W: 16})
					g.after(s, func(t *Trained) []Cell {
						// A single clip at the paper's fixed Δ=3, no accuracy-guarded
						// descent.
						cfg := modeConfig("fp+aw")
						cfg.AW = core.AWConfig{StartDelta: 3, MinDelta: 3, Eps: 1, MinAccuracy: -1}
						return []Cell{t.trained(row), t.defense(row, "fp", modeConfig("fp")), t.defense(row, "fp+aw", cfg)}
					})
				}
			}},
		{ID: "fig3", Title: "Fig. 3 — training under K-label distributions", layout: asSeries, plan: func(g *grid) {
			for _, k := range sw.KLabels {
				s := MNISTScenario(9, 1)
				s.KLabels = k
				curve(g, s, fmt.Sprintf("k=%d", k))
			}
		}},
		{ID: "fig5", Title: "Fig. 5 — pruning curves (RAP vs MVP)", layout: asSeries, plan: func(g *grid) {
			for _, target := range sw.Targets {
				target := target
				g.after(MNISTScenario(9, target), func(t *Trained) (cells []Cell) {
					li := t.Server.Model.LastConvIndex()
					for _, method := range []core.PruneMethod{core.RAP, core.MVP} {
						cfg := core.DefaultPipelineConfig()
						cfg.Method = method
						order := core.GlobalPruneOrder(t.Server.Model, fl.ReportClients(t.Participants), li, cfg)
						curves := core.PruneSweep(t.Server.Model.Clone(), li, order, t.TestEvaluator(), t.ASREvaluator())
						cells = append(cells, sweep(fmt.Sprintf("%s target %d", method, target), nil, curves)...)
					}
					return cells
				})
			}
		}},
		{ID: "fig6", Title: "Fig. 6 — adjusting extreme weights vs Δ", layout: asSeries, plan: func(g *grid) {
			// The AW Δ sweep on the pruned model, no fine-tuning; x = 0 is the
			// unclipped model.
			for _, target := range sw.Targets {
				target := target
				g.after(MNISTScenario(9, target), func(t *Trained) (cells []Cell) {
					m, rep := t.DefendMode("fp")
					for _, li := range core.DefaultAWLayers(m, rep.TargetLayer) {
						curves := core.AWSweep(m.Clone(), li, sw.Deltas, t.TestEvaluator(), t.ASREvaluator())
						cells = append(cells, sweep(fmt.Sprintf("target %d layer %d", target, li),
							append([]float64{0}, sw.Deltas...), curves)...)
					}
					return cells
				})
			}
		}},
		{ID: "fig7", Title: "Fig. 7 — random client selection (50 clients, 10% attackers)", layout: asSeries, plan: func(g *grid) {
			points(g, sw.Selects, func(sel int) Scenario {
				s := MNISTScenario(9, 2)
				s.Clients, s.Attackers, s.PerClient = 50, 5, 40
				s.GenCfg.TrainPerClass = 220
				s.FL.SelectPerRound, s.FL.Rounds = sel, 30
				return s
			}, func(t *Trained) []Cell {
				return []Cell{t.cell("", "after training", t.Server.Model), t.defense("", "after defense", modeConfig("all"))}
			})
		}},
		{ID: "fig8", Title: "Fig. 8 — number of attackers", layout: asSeries, plan: func(g *grid) {
			points(g, sw.Attackers, func(n int) Scenario {
				s := MNISTScenario(9, 2)
				s.Attackers = n
				return s
			}, func(t *Trained) []Cell {
				return []Cell{t.defense("", "pruning only", modeConfig("fp")), t.defense("", "full defense", modeConfig("all"))}
			})
		}},
		{ID: "fig9", Title: "Fig. 9 — wall-clock seconds per phase", layout: asPhases, plan: func(g *grid) {
			// Training is the summed round spans of the federation's training;
			// each defense stage is the "All" pipeline's own span
			// (Report.Timing).
			for _, d := range datasets {
				row := d.name
				g.add(d.of(sw.Pair.VL, sw.Pair.AL), setup{}, arm{after: func(t *Trained, training time.Duration) []Cell {
					_, rep := t.Defend(core.DefaultPipelineConfig())
					return []Cell{{Row: row, Seconds: []float64{training.Seconds(),
						(rep.Timing.Collect + rep.Timing.Sweep).Seconds(), rep.Timing.FineTune.Seconds(), rep.Timing.AW.Seconds()}}}
				}})
			}
		}},
		{ID: "fig10", Title: "Fig. 10 — last-conv L2 regularization λ", layout: asSeries, plan: func(g *grid) {
			// Training with an L2 penalty of weight λ on the last conv layer.
			for _, lambda := range sw.Lambdas {
				s := MNISTScenario(9, 2)
				s.LastConvL2 = lambda
				curve(g, s, fmt.Sprintf("λ=%g", lambda))
			}
		}},
		{ID: "ablation-mask", Title: "Ablation — masked vs zero-only pruning (after fine-tuning)", plan: func(g *grid) {
			// Masked pruning (the default: pruned units stay zero through
			// fine-tuning) vs zero-only pruning (weights zeroed once, free to
			// regrow). Fine-tuning runs with the attackers present, so
			// resurrection is a live risk; both are measured after it.
			row := sw.Pair.String()
			g.after(mnist(sw.Pair), func(t *Trained) []Cell {
				cells := []Cell{t.trained(row)}
				li := t.Server.Model.LastConvIndex()
				cfg := core.DefaultPipelineConfig()
				order := core.GlobalPruneOrder(t.Server.Model, fl.ReportClients(t.Participants), li, cfg)
				evalFn := t.ValidationEvaluator()
				masked := t.Server.Model.Clone()
				res := core.PruneToThreshold(masked, li, order, evalFn, evalFn.Evaluate(masked)-cfg.MaxAccuracyDrop)
				ft := core.FineTune(masked, res.FinalAccuracy, t.Server, cfg.FineTuneRounds, cfg.FineTunePatience, evalFn)
				c := t.cell(row, "masked", masked)
				c.Pruned, c.FineTuned = len(res.Pruned), ft.Rounds
				cells = append(cells, c)
				zeroOnly := t.Server.Model.Clone()
				zeroUnits(zeroOnly, li, res.Pruned)
				ft = core.FineTune(zeroOnly, evalFn.Evaluate(zeroOnly), t.Server, cfg.FineTuneRounds, cfg.FineTunePatience, evalFn)
				c = t.cell(row, "zero-only", zeroOnly)
				c.Pruned, c.FineTuned = len(res.Pruned), ft.Rounds
				return append(cells, c)
			})
		}},
		{ID: "ablation-rate", Title: "Ablation — MVP vote rate p (FP+AW)", counts: []count{{"pruned", "fp+aw", prunedCount}}, plan: func(g *grid) {
			// MVP's vote rate p under FP+AW; the paper reports 0.3-0.7 as the
			// useful band.
			for _, p := range sw.VoteRates {
				row, cfg := fmt.Sprintf("p=%.1f", p), modeConfig("fp+aw")
				cfg.VoteRate = p
				g.after(mnist(sw.Pair), func(t *Trained) []Cell { return []Cell{t.defense(row, "fp+aw", cfg)} })
			}
		}},
		{ID: "ablation-aw", Title: "Ablation — AW target layers (no fine-tuning)", plan: func(g *grid) {
			// AW on the last conv layer only (the paper's literal procedure) vs
			// the default, which adds the first dense layer after it.
			row := sw.Pair.String()
			g.after(mnist(sw.Pair), func(t *Trained) []Cell {
				cfg := modeConfig("fp+aw")
				cfg.AWLayers = []int{t.Server.Model.LastConvIndex()}
				return []Cell{t.trained(row), t.defense(row, "last-conv", cfg), t.defense(row, "conv+dense", modeConfig("fp+aw"))}
			})
		}},
		adaptive(mnist(sw.Pair)),
	}
}

// modeTable declares a row per pair: the trained model of scen(pair), then
// each defense mode's.
func modeTable(g *grid, pairs []Pair, modes []string, scen func(Pair) Scenario) {
	for _, p := range pairs {
		row := p.String()
		g.after(scen(p), func(t *Trained) []Cell {
			cells := []Cell{t.trained(row)}
			for _, mode := range modes {
				cells = append(cells, t.defense(row, mode, modeConfig(mode)))
			}
			return cells
		})
	}
}

// curve declares an observer of s's training: a point of series label
// after every round.
func curve(g *grid, s Scenario, label string) {
	g.add(s, setup{}, arm{observe: func(t *Trained, round int) []Cell {
		return []Cell{{Arm: label, X: float64(round), TA: t.TA(), AA: t.AA()}}
	}})
}

// points declares an arm per x on scen(x)'s training: the cells measure
// returns, at x.
func points(g *grid, xs []int, scen func(x int) Scenario, measure func(*Trained) []Cell) {
	for _, x := range xs {
		x := x
		g.after(scen(x), func(t *Trained) []Cell {
			cells := measure(t)
			for i := range cells {
				cells[i].X = float64(x)
			}
			return cells
		})
	}
}

// sweep turns a sweep's TA and AA curves (fractions) into the points of
// series label, in percent; nil xs numbers the steps from 0.
func sweep(label string, xs []float64, curves [][]float64) []Cell {
	cells := make([]Cell, len(curves[0]))
	for i := range cells {
		cells[i] = Cell{Arm: label, X: float64(i), TA: 100 * curves[0][i], AA: 100 * curves[1][i]}
		if xs != nil {
			cells[i].X = xs[i]
		}
	}
	return cells
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

// adaptive declares the §VI-B adaptive attacks on s against the full
// defense: the rank-manipulating attacker (Attack 1), the AW-aware
// self-clipping attacker, and the pruning-aware attacker (Attack 2), which
// is handed the true prune order. The paper calls obtaining that order
// "nearly impossible"; this is the worst case. The order comes from the
// baseline federation, declared first so that it trains first. Attack 1
// changes only the attackers' reports, so its row is an arm on the
// baseline federation that manipulates ranks for its own defense alone.
func adaptive(s Scenario) Spec {
	return Spec{ID: "adaptive", Title: "Discussion §VI-B — adaptive attacks vs the full defense", plan: func(g *grid) {
		var avoidLayer int
		var avoid []int
		g.after(s, func(t *Trained) []Cell {
			avoidLayer = t.Server.Model.LastConvIndex()
			order := core.GlobalPruneOrder(t.Server.Model, fl.ReportClients(t.Participants), avoidLayer, core.DefaultPipelineConfig())
			avoid = order[:len(order)/2]
			return nil
		})
		defended := func(t *Trained, row string) []Cell {
			return []Cell{t.trained(row), t.defense(row, "all", modeConfig("all"))}
		}
		g.after(s, func(t *Trained) []Cell { return defended(t, "baseline") })
		g.after(s, func(t *Trained) []Cell {
			manipulate := func(on bool) {
				for _, a := range t.Attackers {
					a.SetDefenseBehavior(fl.AttackerDefenseBehavior{ManipulateRanks: on})
				}
			}
			manipulate(true)
			defer manipulate(false)
			return defended(t, "rank-manipulating")
		})
		for _, su := range []setup{
			{"aw-aware self-clip", func(a *fl.Attacker) { a.SelfClipDelta = 3 }},
			{"pruning-aware", func(a *fl.Attacker) { a.AvoidLayer, a.AvoidUnits = avoidLayer, append([]int(nil), avoid...) }},
		} {
			row := su.name
			g.add(s, su, arm{after: func(t *Trained, _ time.Duration) []Cell { return defended(t, row) }})
		}
	}}
}

// AdaptiveAttackTable evaluates the §VI-B adaptive attacks against the
// full defense on the MNIST task pair (adaptive) and returns their cells
// and the table they print.
func AdaptiveAttackTable(pair Pair) ([]Cell, string) {
	sp := adaptive(mnist(pair))
	cells, _, _ := RunGrid([]Spec{sp}, nn.Float64, nil)
	return cells, sp.Render(cells)
}
