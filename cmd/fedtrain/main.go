// Command fedtrain runs one federated-training experiment with a backdoor
// attack and prints the per-round benign test accuracy (TA) and attack
// success rate (AA).
//
// Example:
//
//	fedtrain -dataset mnist -victim 9 -target 2 -attackers 1 -gamma 6
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/fedcleanse/fedcleanse/internal/eval"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/profiling"
)

func main() {
	scen := eval.AddScenarioFlags()
	attackers := flag.Int("attackers", -1, "number of attackers (-1 = scenario default)")
	gamma := flag.Float64("gamma", 0, "model-replacement amplification (0 = scenario default)")
	rounds := flag.Int("rounds", 0, "training rounds (0 = scenario default)")
	workers := flag.Int("workers", 0, "worker goroutines for the parallel simulation paths (0 = FEDCLEANSE_WORKERS or GOMAXPROCS; 1 reproduces the serial path)")
	backendFlag := flag.String("backend", "float64", "numeric backend for model arithmetic: float64 (reference) or float32 (faster; aggregation and checkpoints stay float64)")
	prof := profiling.AddFlags()
	logf := obs.AddLogFlags()
	flag.Parse()
	if _, err := logf.Setup(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	backend, err := nn.ParseBackend(*backendFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer prof.Start()()
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	s, err := scen.Scenario()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *attackers >= 0 {
		s.Attackers = *attackers
	}
	if *gamma > 0 {
		s.Gamma = *gamma
	}
	if *rounds > 0 {
		s.FL.Rounds = *rounds
	}
	s.Backend = backend

	t := eval.Build(s)
	fmt.Printf("scenario %s: %d clients (%d attackers), %d rounds, gamma %.1f\n",
		s.Name, s.Clients, s.Attackers, s.FL.Rounds, s.Gamma)
	t.Server.Train(func(round int) {
		fmt.Printf("round %2d: TA=%5.1f AA=%5.1f\n", round, t.TA(), t.AA())
	})
}
