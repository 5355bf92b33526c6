// robust_agg trains the SynthMNIST 9->2 federation, with its
// model-replacement attacker, once under each aggregation rule (FedAvg's
// mean, Krum, trimmed mean, median, Bulyan) and prints the trained model's
// test accuracy (TA) and attack accuracy (AA) per rule. The paper motivates
// its post-training defense with the claim that such Byzantine-robust rules
// do not reliably stop backdoors under non-IID data; this example measures
// that claim for one attacker and one task.
//
//	go run ./examples/robust_agg
package main

import (
	"fmt"

	fedcleanse "github.com/fedcleanse/fedcleanse"
)

func main() {
	aggs := []struct {
		name string
		agg  fedcleanse.Aggregator
	}{
		{"fedavg (mean)", nil}, // server default
		{"krum (f=1)", fedcleanse.Krum{F: 1}},
		{"trimmed mean", fedcleanse.TrimmedMean{Trim: 1}},
		{"median", fedcleanse.Median{}},
		{"bulyan (f=1)", fedcleanse.Bulyan{F: 1}},
	}

	fmt.Println("aggregation rule vs model-replacement backdoor (SynthMNIST, 9->2):")
	for _, a := range aggs {
		s := fedcleanse.MNISTScenario(9, 2)
		t := fedcleanse.BuildScenario(s)
		if a.agg != nil {
			t.Server.Agg = a.agg
		}
		t.Server.Train(nil)
		fmt.Printf("  %-14s TA=%5.1f AA=%5.1f\n", a.name, t.TA(), t.AA())
	}
}
