package eval

import (
	"flag"
	"fmt"
)

// ScenarioFlags holds the scenario-selection flags the commands share. All
// processes of one federation must be started with the same values: each
// derives its shard, model and population from them.
type ScenarioFlags struct {
	Dataset *string
	Victim  *int
	Target  *int
	Seed    *int64
}

// AddScenarioFlags registers -dataset, -victim, -target and -seed on the
// default flag set. Call it before flag.Parse, then Scenario.
func AddScenarioFlags() *ScenarioFlags {
	return &ScenarioFlags{
		Dataset: flag.String("dataset", "mnist", "dataset: mnist, fashion or cifar"),
		Victim:  flag.Int("victim", 9, "victim label (VL)"),
		Target:  flag.Int("target", 2, "attack label (AL)"),
		Seed:    flag.Int64("seed", 0, "experiment seed (0 = scenario default)"),
	}
}

// Scenario returns the paper scenario the parsed flags name, reseeded by
// WithSeed when -seed is not 0, or an error for an unknown dataset.
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
	return s, nil
}
