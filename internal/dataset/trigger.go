package dataset

import "fmt"

// Pixel is one element of a backdoor trigger: set channel C of position
// (X, Y) to Value.
type Pixel struct {
	X, Y, C int
	Value   float64
}

// Trigger is a BadNets-style pixel-pattern backdoor (paper §III-B, Fig. 1):
// a fixed set of pixels stamped onto an image.
type Trigger struct {
	Name   string
	Pixels []Pixel
}

// Apply stamps the trigger onto x (a flat C×H×W buffer) in place.
func (t Trigger) Apply(x []float64, s Shape) {
	for _, p := range t.Pixels {
		if p.X < 0 || p.X >= s.W || p.Y < 0 || p.Y >= s.H || p.C < 0 || p.C >= s.C {
			panic(fmt.Sprintf("dataset: trigger %s pixel (%d,%d,c%d) outside %dx%dx%d image",
				t.Name, p.X, p.Y, p.C, s.C, s.H, s.W))
		}
		x[p.C*s.H*s.W+p.Y*s.W+p.X] = p.Value
	}
}

// Decompose splits the trigger into parts sub-triggers covering disjoint
// pixel subsets, the DBA construction (paper §V-A, Fig. 4): each attacker
// trains with one local sub-pattern while evaluation uses the full global
// pattern. Pixels are distributed round-robin, so every part is non-empty
// when len(Pixels) >= parts.
func (t Trigger) Decompose(parts int) []Trigger {
	if parts <= 0 {
		panic(fmt.Sprintf("dataset: Decompose into %d parts", parts))
	}
	out := make([]Trigger, parts)
	for i := range out {
		out[i].Name = fmt.Sprintf("%s/part%d", t.Name, i)
	}
	for i, p := range t.Pixels {
		k := i % parts
		out[k].Pixels = append(out[k].Pixels, p)
	}
	return out
}

// PixelPattern returns the paper's n-pixel corner pattern (n ∈ {1,3,5,7,9})
// in the bottom-right corner of the image, stamped at full brightness on
// every channel. Other odd n are also accepted; the pattern fills a 3×3
// corner block in a fixed order.
func PixelPattern(n int, s Shape) Trigger {
	if n <= 0 || n > 9 {
		panic(fmt.Sprintf("dataset: PixelPattern n=%d, want 1..9", n))
	}
	// Offsets within the 3×3 bottom-right block, ordered so small patterns
	// are spatially spread (corner, opposite corner, cross arms, ...).
	order := [][2]int{
		{2, 2}, {0, 0}, {2, 0}, {0, 2}, {1, 1},
		{1, 0}, {2, 1}, {0, 1}, {1, 2},
	}
	baseX, baseY := s.W-4, s.H-4
	tr := Trigger{Name: fmt.Sprintf("pixel%d", n)}
	for i := 0; i < n; i++ {
		dx, dy := order[i][0], order[i][1]
		for c := 0; c < s.C; c++ {
			tr.Pixels = append(tr.Pixels, Pixel{X: baseX + dx, Y: baseY + dy, C: c, Value: 1})
		}
	}
	return tr
}

// DBAGlobalPattern returns the global trigger used by the Distributed
// Backdoor Attack experiments: four short bars near the image corners (one
// per attacker after Decompose(4)).
func DBAGlobalPattern(s Shape) Trigger {
	tr := Trigger{Name: "dba-global"}
	bars := [][2]int{{1, 1}, {s.W - 4, 1}, {1, s.H - 3}, {s.W - 4, s.H - 3}}
	for _, b := range bars {
		for i := 0; i < 3; i++ {
			for c := 0; c < s.C; c++ {
				tr.Pixels = append(tr.Pixels, Pixel{X: b[0] + i, Y: b[1], C: c, Value: 1})
			}
		}
	}
	return tr
}

// PoisonConfig describes a backdoor data-poisoning task: images of the
// victim label receive the trigger and are relabeled to the target label.
type PoisonConfig struct {
	Trigger Trigger
	// VictimLabel is the class whose triggered images should be
	// misclassified (the paper's VL).
	VictimLabel int
	// TargetLabel is the label the attacker wants predicted (the paper's AL).
	TargetLabel int
	// Copies is the number of triggered copies added per victim sample in
	// PoisonTrainSet; 0 means 1. Oversampling strengthens the backdoor
	// gradient against the conflicting clean supervision.
	Copies int
}

// PoisonTrainSet builds an attacker's local training set: every clean
// sample is kept, and every sample of the victim label additionally
// contributes a triggered copy relabeled to the target (paper §III-B: "the
// attacker would train the local model with both original images and the
// backdoored version of those images").
func PoisonTrainSet(local *Dataset, cfg PoisonConfig) *Dataset {
	copies := cfg.Copies
	if copies <= 0 {
		copies = 1
	}
	out := &Dataset{Shape: local.Shape, Classes: local.Classes}
	out.Samples = append(out.Samples, local.Samples...)
	for _, s := range local.Samples {
		if s.Label != cfg.VictimLabel {
			continue
		}
		for c := 0; c < copies; c++ {
			p := s.Clone()
			cfg.Trigger.Apply(p.X, local.Shape)
			p.Label = cfg.TargetLabel
			out.Samples = append(out.Samples, p)
		}
	}
	return out
}

// PoisonTestSet builds the backdoor evaluation set: triggered copies of
// every victim-label sample, labeled with the target label, so plain test
// accuracy on the returned set equals the attack success rate.
func PoisonTestSet(test *Dataset, cfg PoisonConfig) *Dataset {
	out := &Dataset{Shape: test.Shape, Classes: test.Classes}
	for _, s := range test.Samples {
		if s.Label != cfg.VictimLabel {
			continue
		}
		p := s.Clone()
		cfg.Trigger.Apply(p.X, test.Shape)
		p.Label = cfg.TargetLabel
		out.Samples = append(out.Samples, p)
	}
	return out
}
