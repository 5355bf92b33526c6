// Command fedbench regenerates the tables and figures of the paper's
// evaluation section (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	fedbench -exp table1            # one experiment, reduced pair sweep
//	fedbench -exp table1 -full      # the paper's full 18-pair sweep
//	fedbench -exp all               # everything (slow)
//
// Results print as text tables/series; EXPERIMENTS.md records a captured
// run against the paper's numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/eval"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/profiling"
)

func main() {
	expFlag := flag.String("exp", "all", "experiment id: table1..table7, fig3, fig5..fig10, ablation-mask, ablation-rate, ablation-aw, adaptive, or all")
	full := flag.Bool("full", false, "run the paper's full sweeps instead of the reduced defaults")
	workers := flag.Int("workers", 0, "worker goroutines for the parallel simulation paths (0 = FEDCLEANSE_WORKERS or GOMAXPROCS; 1 reproduces the serial path)")
	backendFlag := flag.String("backend", "float64", "numeric backend for model arithmetic in every experiment: float64 (reference) or float32 (faster; aggregation and checkpoints stay float64)")
	prof := profiling.AddFlags()
	logf := obs.AddLogFlags()
	flag.Parse()
	if _, err := logf.Setup(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer prof.Start()()
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}
	backend, err := nn.ParseBackend(*backendFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	eval.SetDefaultBackend(backend)

	pairs := eval.QuickPairs()
	ninePairs := eval.QuickPairs()
	if *full {
		pairs = eval.FullPairs()
		ninePairs = eval.NinePairs()
	}

	run := func(id string, f func()) {
		if *expFlag != "all" && *expFlag != id {
			return
		}
		start := time.Now()
		f()
		fmt.Printf("[%s done in %.1fs]\n\n", id, time.Since(start).Seconds())
	}

	run("table1", func() { fmt.Print(eval.TableI(pairs).Render()) })
	run("table2", func() { fmt.Print(eval.TableII(ninePairs).Render()) })
	run("table3", func() { fmt.Print(eval.TableIII(ninePairs).Render()) })
	run("table4", func() { fmt.Print(eval.TableIV(eval.Pair{VL: 9, AL: 2}).Render()) })
	run("table5", func() { fmt.Print(eval.TableV(pairs).Render()) })
	run("table6", func() { fmt.Print(eval.TableVI(eval.QuickPairs()).Render()) })
	run("table7", func() { fmt.Print(eval.TableVII([]int{1, 3, 5, 7, 9}).Render()) })
	run("fig3", func() { fmt.Print(eval.Fig3([]int{3, 5, 7}).Render()) })
	run("fig5", func() { fmt.Print(eval.Fig5([]int{0, 2}).Render()) })
	run("fig6", func() {
		fmt.Print(eval.Fig6([]int{0, 2}, []float64{5, 4, 3, 2.5, 2, 1.5, 1}).Render())
	})
	run("fig7", func() {
		sel := []int{5, 15, 25}
		if *full {
			sel = []int{5, 10, 15, 20, 25}
		}
		fmt.Print(eval.Fig7(sel).Render())
	})
	run("fig8", func() {
		counts := []int{1, 3, 6, 9}
		if *full {
			counts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		}
		fmt.Print(eval.Fig8(counts).Render())
	})
	run("fig9", func() { fmt.Print(eval.RenderTimings(eval.Fig9())) })
	run("fig10", func() { fmt.Print(eval.Fig10([]float64{0, 0.01, 0.05}).Render()) })
	run("ablation-mask", func() { fmt.Print(eval.AblationMaskedPruning(eval.Pair{VL: 9, AL: 2}).Render()) })
	run("ablation-rate", func() {
		fmt.Print(eval.AblationVoteRate(eval.Pair{VL: 9, AL: 2}, []float64{0.1, 0.3, 0.5, 0.7, 0.9}).Render())
	})
	run("ablation-aw", func() { fmt.Print(eval.AblationAWLayers(eval.Pair{VL: 9, AL: 2}).Render()) })
	run("adaptive", func() { fmt.Print(eval.AdaptiveAttackTable(eval.Pair{VL: 9, AL: 2}).Render()) })

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
}
