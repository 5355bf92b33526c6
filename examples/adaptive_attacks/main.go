// adaptive_attacks evaluates the paper's §VI-B discussion: attackers that
// know the defense and adapt — manipulating rank reports so backdoor
// neurons look essential (Attack 1), training around a known prune mask
// (Attack 2), and self-clipping extreme weights to dodge the AW step. The
// paper observes the combined defense remains robust; this example
// measures each variant.
//
//	go run ./examples/adaptive_attacks
package main

import (
	"fmt"

	fedcleanse "github.com/fedcleanse/fedcleanse"
)

func main() {
	fmt.Println("adaptive attackers vs the full defense (SynthMNIST, 9->2):")
	fmt.Println("(training may take a few minutes per variant)")
	_, table := fedcleanse.AdaptiveAttackTable(fedcleanse.ExperimentPair{VL: 9, AL: 2})
	fmt.Print(table)

	fmt.Println("\nreading the table: 'training' columns show the attack landing;")
	fmt.Println("'all' columns show TA/AA after pruning + fine-tuning + weight")
	fmt.Println("adjustment. The defense's AA reduction should survive every variant.")

	// The facade also exposes the attacker knobs directly:
	s := fedcleanse.MNISTScenario(9, 2)
	t := fedcleanse.BuildScenario(s)
	t.Attackers[0].SelfClipDelta = 3 // AW-aware self-clipping
	_ = t                            // train with t.Server.Train(nil) as needed
}
