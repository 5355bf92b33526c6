package eval

import (
	"flag"
	"fmt"

	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
)

// ScenarioFlags holds the scenario flags the commands share. All processes
// of one federation must be started with the same values: each derives its
// shard, model, participants and population from them.
type ScenarioFlags struct {
	Dataset     *string
	Victim      *int
	Target      *int
	Seed        *int64
	Attackers   *int
	Gamma       *float64
	Rounds      *int
	Backend     *string
	ReportQuant *string
}

// AddScenarioFlags registers -dataset, -victim, -target, -seed, -attackers,
// -gamma, -rounds, -backend and -report-quant on the default flag set. Call
// it before flag.Parse, then Scenario.
func AddScenarioFlags() *ScenarioFlags {
	return &ScenarioFlags{
		Dataset:     flag.String("dataset", "mnist", "dataset: mnist, fashion or cifar"),
		Victim:      flag.Int("victim", 9, "victim label (VL)"),
		Target:      flag.Int("target", 2, "attack label (AL)"),
		Seed:        flag.Int64("seed", 0, "experiment seed (0 = scenario default)"),
		Attackers:   flag.Int("attackers", -1, "number of attackers (-1 = scenario default)"),
		Gamma:       flag.Float64("gamma", 0, "model-replacement amplification (0 = scenario default)"),
		Rounds:      flag.Int("rounds", 0, "training rounds (0 = scenario default)"),
		Backend:     flag.String("backend", "float64", "numeric backend for model arithmetic: float64 (reference) or float32 (faster; aggregation and checkpoints stay float64)"),
		ReportQuant: flag.String("report-quant", "float64", "report precision: float64 (reference) or int8 (ranks and votes from affine-int8-quantized activations; the wire carries ranks or votes either way)"),
	}
}

// Scenario returns the paper scenario the parsed flags name, reseeded by
// WithSeed when -seed is not 0 and with the other flags' overrides
// applied, or an error for an unknown dataset, backend or report precision.
func (f *ScenarioFlags) Scenario() (Scenario, error) {
	var s Scenario
	switch *f.Dataset {
	case "mnist":
		s = MNISTScenario(*f.Victim, *f.Target)
	case "fashion":
		s = FashionScenario(*f.Victim, *f.Target)
	case "cifar":
		s = CIFARScenario(*f.Victim, *f.Target)
	default:
		return Scenario{}, fmt.Errorf("unknown dataset %q", *f.Dataset)
	}
	if *f.Seed != 0 {
		s = s.WithSeed(*f.Seed)
	}
	if *f.Attackers >= 0 {
		s.Attackers = *f.Attackers
	}
	if *f.Gamma > 0 {
		s.Gamma = *f.Gamma
	}
	if *f.Rounds > 0 {
		s.FL.Rounds = *f.Rounds
	}
	var err error
	if s.Backend, err = nn.ParseBackend(*f.Backend); err != nil {
		return Scenario{}, err
	}
	if s.ReportQuant, err = metrics.ParseReportQuant(*f.ReportQuant); err != nil {
		return Scenario{}, err
	}
	return s, nil
}
