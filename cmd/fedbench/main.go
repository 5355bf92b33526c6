// Command fedbench regenerates the tables and figures of the paper's
// evaluation section (see DESIGN.md §11 for the experiment index).
//
// Usage:
//
//	fedbench -exp table1            # one experiment, reduced pair sweep
//	fedbench -exp table1 -full      # the paper's full 18-pair sweep
//	fedbench -exp all               # everything (slow)
//
// The selected experiments run as one grid (eval.RunGrid): each distinct
// federation trains once for every experiment that needs it. An experiment
// measures cells (eval.Cell, one record per measurement); as soon as it is
// complete its cells print as a table or as TA/AA series (Spec.Render),
// followed by its "[<id> done in <s>s]" line. The run ends with "[all:
// <cells> cells, <k> federations trained, <s> s]", where cells counts the
// (training, arm) pairs declared. EXPERIMENTS.md records a captured run
// against the paper's numbers. FEDCLEANSE_WORKERS pins the worker count (parallel.Workers);
// the tables are the same bytes at any count.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/eval"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/profiling"
)

func main() {
	expFlag := flag.String("exp", "all", "experiment id: table1..table7, fig3, fig5..fig10, ablation-mask, ablation-rate, ablation-aw, adaptive, or all")
	full := flag.Bool("full", false, "run the paper's full sweeps instead of the reduced defaults")
	backendFlag := flag.String("backend", "float64", "numeric backend for model arithmetic in every experiment: float64 (reference) or float32 (faster; aggregation and checkpoints stay float64)")
	prof := profiling.AddFlags()
	logf := obs.AddLogFlags()
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	var specs []eval.Spec
	for _, sp := range eval.Specs(eval.PaperSweep(*full)) {
		if *expFlag == "all" || *expFlag == sp.ID {
			specs = append(specs, sp)
		}
	}
	if len(specs) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expFlag)
		os.Exit(2)
	}
	if _, err := logf.Setup(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer prof.Start()()
	backend, err := nn.ParseBackend(*backendFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	start := time.Now()
	_, arms, trained := eval.RunGrid(specs, backend, func(sp eval.Spec, cells []eval.Cell, took time.Duration) {
		fmt.Print(sp.Render(cells))
		fmt.Printf("[%s done in %.1fs]\n\n", sp.ID, took.Seconds())
	})
	fmt.Printf("[all: %d cells, %d federations trained, %.1f s]\n", arms, trained, time.Since(start).Seconds())
}
