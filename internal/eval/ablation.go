package eval

import (
	"fmt"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/nn"
)

// Ablation studies for the design decisions called out in DESIGN.md §5.
// They are not paper artifacts; they justify implementation choices.

// AblationMaskedPruning compares masked pruning (the library's default:
// pruned units are pinned to zero through fine-tuning) against zero-only
// pruning (weights zeroed once, free to regrow). The paper's pipeline
// fine-tunes with attackers present, so resurrection is a live risk; this
// ablation quantifies it. Returns a table with both variants after
// fine-tuning.
func AblationMaskedPruning(pair Pair) *Table {
	tbl := &Table{
		Title: "Ablation — masked vs zero-only pruning (after fine-tuning)",
		Modes: []string{"training", "masked", "zero-only"},
	}
	t := Run(MNISTScenario(pair.VL, pair.AL))
	row := Row{Label: pair.String(), Cells: map[string]Cell{
		"training": {TA: t.TA(), AA: t.AA()},
	}}

	layerIdx := t.Server.Model.LastConvIndex()
	clients := fl.ReportClients(t.Participants)
	cfg := core.DefaultPipelineConfig()
	order := core.GlobalPruneOrder(t.Server.Model, clients, layerIdx, cfg)
	evalFn := t.ValidationEvaluator()

	// Masked variant: the standard pipeline path.
	masked := t.Server.Model.Clone()
	res := core.PruneToThreshold(masked, layerIdx, order, evalFn, evalFn.Evaluate(masked)-cfg.MaxAccuracyDrop, 0)
	core.FineTune(masked, t.Server, cfg.FineTuneRounds, cfg.FineTunePatience, evalFn)
	row.Cells["masked"] = Cell{TA: t.ModelTA(masked), AA: t.ModelAA(masked)}

	// Zero-only variant: zero the same units' weights without a mask, then
	// fine-tune — aggregated updates may resurrect them.
	zeroOnly := t.Server.Model.Clone()
	zeroUnits(zeroOnly, layerIdx, res.Pruned)
	core.FineTune(zeroOnly, t.Server, cfg.FineTuneRounds, cfg.FineTunePatience, evalFn)
	row.Cells["zero-only"] = Cell{TA: t.ModelTA(zeroOnly), AA: t.ModelAA(zeroOnly)}

	tbl.Rows = append(tbl.Rows, row)
	return tbl
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

// AblationVoteRate sweeps MVP's pruning rate p and reports the pruned
// count, TA and AA of the FP+AW defense at each rate (the paper reports
// 0.3-0.7 as the useful band).
func AblationVoteRate(pair Pair, rates []float64) *Table {
	tbl := &Table{
		Title:     "Ablation — MVP vote rate p (FP+AW)",
		Modes:     []string{"fp+aw"},
		ExtraCols: []string{"pruned"},
	}
	t := Run(MNISTScenario(pair.VL, pair.AL))
	for _, p := range rates {
		cfg := core.DefaultPipelineConfig()
		cfg.VoteRate = p
		cfg.FineTuneRounds = 0
		m, rep := t.Defend(cfg)
		tbl.Rows = append(tbl.Rows, Row{
			Label: fmt.Sprintf("p=%.1f", p),
			Cells: map[string]Cell{
				"fp+aw": {TA: t.ModelTA(m), AA: t.ModelAA(m)},
			},
			Extra: map[string]int{"pruned": len(rep.Prune.Pruned)},
		})
	}
	return tbl
}

// AblationAWLayers compares the extreme-weight adjustment applied to the
// last conv layer only (the paper's literal procedure) against the
// library default (last conv plus the first dense layer after it), the
// geometry adaptation documented in DESIGN.md.
func AblationAWLayers(pair Pair) *Table {
	tbl := &Table{
		Title: "Ablation — AW target layers (no fine-tuning)",
		Modes: []string{"training", "last-conv", "conv+dense"},
	}
	t := Run(MNISTScenario(pair.VL, pair.AL))
	row := Row{Label: pair.String(), Cells: map[string]Cell{
		"training": {TA: t.TA(), AA: t.AA()},
	}}
	layerIdx := t.Server.Model.LastConvIndex()

	convOnly := core.DefaultPipelineConfig()
	convOnly.FineTuneRounds = 0
	convOnly.AWLayers = []int{layerIdx}
	m, _ := t.Defend(convOnly)
	row.Cells["last-conv"] = Cell{TA: t.ModelTA(m), AA: t.ModelAA(m)}

	both := core.DefaultPipelineConfig()
	both.FineTuneRounds = 0
	m, _ = t.Defend(both)
	row.Cells["conv+dense"] = Cell{TA: t.ModelTA(m), AA: t.ModelAA(m)}

	tbl.Rows = append(tbl.Rows, row)
	return tbl
}

// AdaptiveAttackTable evaluates the §VI-B adaptive attacks against the
// full defense: the rank-manipulating attacker (Attack 1),
// the pruning-aware attacker (Attack 2, given the true prune order), and
// the AW-aware self-clipping attacker.
func AdaptiveAttackTable(pair Pair) *Table {
	tbl := &Table{
		Title: "Discussion §VI-B — adaptive attacks vs the full defense",
		Modes: []string{"training", "all"},
	}
	variants := []struct {
		name  string
		setup func(t *Trained)
	}{
		{"baseline", func(*Trained) {}},
		{"rank-manipulating", func(t *Trained) {
			for _, a := range t.Attackers {
				a.SetDefenseBehavior(fl.AttackerDefenseBehavior{ManipulateRanks: true})
			}
		}},
		{"aw-aware self-clip", func(t *Trained) {
			for _, a := range t.Attackers {
				a.SelfClipDelta = 3
			}
		}},
		{"pruning-aware", func(t *Trained) {
			// Give the attacker the oracle prune order (the paper calls
			// obtaining it "nearly impossible"; this is the worst case): a
			// shadow run of the same scenario is trained to convergence and
			// its aggregated prune order handed to the attackers.
			shadow := Run(t.Scenario)
			li := shadow.Server.Model.LastConvIndex()
			cfg := core.DefaultPipelineConfig()
			order := core.GlobalPruneOrder(shadow.Server.Model, fl.ReportClients(shadow.Participants), li, cfg)
			avoid := order[:len(order)/2]
			for _, a := range t.Attackers {
				a.AvoidLayer = li
				a.AvoidUnits = append([]int(nil), avoid...)
			}
		}},
	}
	for _, v := range variants {
		t := Build(MNISTScenario(pair.VL, pair.AL))
		v.setup(t)
		t.Server.Train(nil)
		row := Row{Label: v.name, Cells: map[string]Cell{
			"training": {TA: t.TA(), AA: t.AA()},
		}}
		m, _ := t.DefendMode("all")
		row.Cells["all"] = Cell{TA: t.ModelTA(m), AA: t.ModelAA(m)}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}
