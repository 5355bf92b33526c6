package dataset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenSynthMNISTDeterministic(t *testing.T) {
	cfg := GenConfig{TrainPerClass: 5, TestPerClass: 3, Seed: 42}
	tr1, te1 := GenSynthMNIST(cfg)
	tr2, te2 := GenSynthMNIST(cfg)
	if tr1.Len() != 50 || te1.Len() != 30 {
		t.Fatalf("sizes %d/%d, want 50/30", tr1.Len(), te1.Len())
	}
	for i := range tr1.Samples {
		if tr1.Samples[i].Label != tr2.Samples[i].Label {
			t.Fatal("labels differ across identical seeds")
		}
		for j := range tr1.Samples[i].X {
			if tr1.Samples[i].X[j] != tr2.Samples[i].X[j] {
				t.Fatal("pixels differ across identical seeds")
			}
		}
	}
	if te1.Len() != te2.Len() {
		t.Fatal("test split size differs")
	}
}

func TestGenSynthSeedsDiffer(t *testing.T) {
	a, _ := GenSynthMNIST(GenConfig{TrainPerClass: 2, TestPerClass: 1, Seed: 1})
	b, _ := GenSynthMNIST(GenConfig{TrainPerClass: 2, TestPerClass: 1, Seed: 2})
	same := true
	for i := range a.Samples {
		for j := range a.Samples[i].X {
			if a.Samples[i].X[j] != b.Samples[i].X[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSamplesInUnitRange(t *testing.T) {
	for name, gen := range map[string]func(GenConfig) (*Dataset, *Dataset){
		"mnist": GenSynthMNIST, "fashion": GenSynthFashion, "cifar": GenSynthCIFAR,
	} {
		tr, te := gen(GenConfig{TrainPerClass: 3, TestPerClass: 2, Seed: 7})
		for _, ds := range []*Dataset{tr, te} {
			for _, s := range ds.Samples {
				if len(s.X) != ds.Shape.Elems() {
					t.Fatalf("%s: sample length %d, want %d", name, len(s.X), ds.Shape.Elems())
				}
				if s.Label < 0 || s.Label >= ds.Classes {
					t.Fatalf("%s: label %d out of range", name, s.Label)
				}
				for _, v := range s.X {
					if v < 0 || v > 1 {
						t.Fatalf("%s: pixel %g outside [0,1]", name, v)
					}
				}
			}
		}
	}
}

func TestCIFARShape(t *testing.T) {
	tr, _ := GenSynthCIFAR(GenConfig{TrainPerClass: 1, TestPerClass: 1, Seed: 3})
	if tr.Shape.C != 3 {
		t.Fatalf("CIFAR stand-in has %d channels, want 3", tr.Shape.C)
	}
}

func TestByLabelAndSubset(t *testing.T) {
	tr, _ := GenSynthMNIST(GenConfig{TrainPerClass: 4, TestPerClass: 1, Seed: 5})
	groups := tr.ByLabel()
	if len(groups) != 10 {
		t.Fatalf("%d label groups, want 10", len(groups))
	}
	total := 0
	for l, g := range groups {
		if len(g) != 4 {
			t.Fatalf("label %d has %d samples, want 4", l, len(g))
		}
		total += len(g)
		sub := tr.Subset(g)
		for _, s := range sub.Samples {
			if s.Label != l {
				t.Fatalf("subset of label %d contains label %d", l, s.Label)
			}
		}
	}
	if total != tr.Len() {
		t.Fatal("ByLabel lost samples")
	}
}

func TestBatch(t *testing.T) {
	tr, _ := GenSynthMNIST(GenConfig{TrainPerClass: 2, TestPerClass: 1, Seed: 6})
	x, labels := tr.Batch(0, 5)
	if x.Dim(0) != 5 || x.Dim(1) != 1 || x.Dim(2) != 16 || x.Dim(3) != 16 {
		t.Fatalf("batch shape %v", x.Shape())
	}
	if len(labels) != 5 {
		t.Fatalf("%d labels, want 5", len(labels))
	}
	for i := 0; i < 5; i++ {
		if labels[i] != tr.Samples[i].Label {
			t.Fatal("batch labels out of order")
		}
		if x.At(i, 0, 0, 0) != tr.Samples[i].X[0] {
			t.Fatal("batch pixels out of order")
		}
	}
}

func TestPartitionKLabel(t *testing.T) {
	tr, _ := GenSynthMNIST(GenConfig{TrainPerClass: 50, TestPerClass: 1, Seed: 8})
	rng := rand.New(rand.NewSource(9))
	parts := PartitionKLabel(tr, 10, 3, 40, rng)
	if len(parts) != 10 {
		t.Fatalf("%d clients, want 10", len(parts))
	}
	for ci, p := range parts {
		if p.Len() != 40 {
			t.Fatalf("client %d has %d samples, want 40", ci, p.Len())
		}
		seen := map[int]bool{}
		for _, s := range p.Samples {
			seen[s.Label] = true
		}
		if len(seen) != 3 {
			t.Fatalf("client %d sees %d labels, want exactly 3", ci, len(seen))
		}
	}
}

func TestPartitionKLabelFullIID(t *testing.T) {
	tr, _ := GenSynthMNIST(GenConfig{TrainPerClass: 30, TestPerClass: 1, Seed: 10})
	rng := rand.New(rand.NewSource(11))
	parts := PartitionKLabel(tr, 5, 10, 50, rng)
	for ci, p := range parts {
		seen := map[int]bool{}
		for _, s := range p.Samples {
			seen[s.Label] = true
		}
		if len(seen) != 10 {
			t.Fatalf("client %d sees %d labels under K=10, want 10", ci, len(seen))
		}
	}
}

func TestPartitionPanicsOnBadArgs(t *testing.T) {
	tr, _ := GenSynthMNIST(GenConfig{TrainPerClass: 2, TestPerClass: 1, Seed: 1})
	rng := rand.New(rand.NewSource(1))
	for _, f := range []func(){
		func() { PartitionKLabel(tr, 0, 3, 10, rng) },
		func() { PartitionKLabel(tr, 5, 0, 10, rng) },
		func() { PartitionKLabel(tr, 5, 11, 10, rng) },
		func() { PartitionKLabel(tr, 5, 3, 0, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad partition args accepted")
				}
			}()
			f()
		}()
	}
}

func TestTriggerApply(t *testing.T) {
	s := Shape{C: 1, H: 16, W: 16}
	x := make([]float64, s.Elems())
	tr := PixelPattern(3, s)
	tr.Apply(x, s)
	set := 0
	for _, v := range x {
		if v == 1 {
			set++
		}
	}
	if set != 3 {
		t.Fatalf("%d pixels set, want 3", set)
	}
}

func TestTriggerApplyMultiChannel(t *testing.T) {
	s := Shape{C: 3, H: 16, W: 16}
	x := make([]float64, s.Elems())
	PixelPattern(1, s).Apply(x, s)
	set := 0
	for _, v := range x {
		if v == 1 {
			set++
		}
	}
	if set != 3 { // one pixel on each of 3 channels
		t.Fatalf("%d values set, want 3", set)
	}
}

func TestTriggerOutOfBoundsPanics(t *testing.T) {
	s := Shape{C: 1, H: 4, W: 4}
	tr := Trigger{Name: "bad", Pixels: []Pixel{{X: 9, Y: 0, C: 0, Value: 1}}}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds trigger accepted")
		}
	}()
	tr.Apply(make([]float64, s.Elems()), s)
}

func TestPixelPatternSizes(t *testing.T) {
	s := Shape{C: 1, H: 16, W: 16}
	for _, n := range []int{1, 3, 5, 7, 9} {
		tr := PixelPattern(n, s)
		if len(tr.Pixels) != n {
			t.Fatalf("PixelPattern(%d) has %d pixels", n, len(tr.Pixels))
		}
	}
}

// Property: decomposition partitions the pixels — every pixel appears in
// exactly one part, and the union equals the original set.
func TestDecomposePartitionProperty(t *testing.T) {
	s := Shape{C: 1, H: 16, W: 16}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(9)
		parts := 1 + r.Intn(4)
		tr := PixelPattern(n, s)
		dec := tr.Decompose(parts)
		count := 0
		seen := map[[3]int]bool{}
		for _, d := range dec {
			for _, p := range d.Pixels {
				key := [3]int{p.X, p.Y, p.C}
				if seen[key] {
					return false // duplicated pixel
				}
				seen[key] = true
				count++
			}
		}
		return count == len(tr.Pixels)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDBADecomposeFourNonEmptyParts(t *testing.T) {
	s := Shape{C: 3, H: 16, W: 16}
	global := DBAGlobalPattern(s)
	parts := global.Decompose(4)
	if len(parts) != 4 {
		t.Fatalf("%d parts, want 4", len(parts))
	}
	for i, p := range parts {
		if len(p.Pixels) == 0 {
			t.Fatalf("part %d empty", i)
		}
	}
}

func TestPoisonTrainSet(t *testing.T) {
	tr, _ := GenSynthMNIST(GenConfig{TrainPerClass: 5, TestPerClass: 1, Seed: 12})
	cfg := PoisonConfig{
		Trigger:     PixelPattern(3, tr.Shape),
		VictimLabel: 9,
		TargetLabel: 1,
	}
	poisoned := PoisonTrainSet(tr, cfg)
	// 50 clean + 5 triggered copies of label 9.
	if poisoned.Len() != 55 {
		t.Fatalf("poisoned size %d, want 55", poisoned.Len())
	}
	relabeled := 0
	for _, s := range poisoned.Samples[50:] {
		if s.Label == cfg.TargetLabel {
			relabeled++
		}
	}
	if relabeled != 5 {
		t.Fatalf("%d poisoned copies relabeled, want 5", relabeled)
	}
	// The original samples must be untouched (clone semantics).
	for _, s := range tr.Samples {
		if s.Label == 9 {
			corner := s.X[len(s.X)-1-16-1] // bottom-right block pixel
			_ = corner                     // presence check below via trigger positions
		}
	}
}

func TestPoisonTestSetOnlyVictims(t *testing.T) {
	_, te := GenSynthMNIST(GenConfig{TrainPerClass: 1, TestPerClass: 6, Seed: 13})
	cfg := PoisonConfig{
		Trigger:     PixelPattern(1, te.Shape),
		VictimLabel: 4,
		TargetLabel: 7,
	}
	atk := PoisonTestSet(te, cfg)
	if atk.Len() != 6 {
		t.Fatalf("attack set size %d, want 6", atk.Len())
	}
	for _, s := range atk.Samples {
		if s.Label != 7 {
			t.Fatalf("attack sample labeled %d, want 7", s.Label)
		}
	}
}

func TestPoisonDoesNotMutateOriginal(t *testing.T) {
	_, te := GenSynthMNIST(GenConfig{TrainPerClass: 1, TestPerClass: 2, Seed: 14})
	orig := make([][]float64, len(te.Samples))
	for i, s := range te.Samples {
		orig[i] = append([]float64(nil), s.X...)
	}
	cfg := PoisonConfig{Trigger: PixelPattern(9, te.Shape), VictimLabel: 0, TargetLabel: 1}
	PoisonTestSet(te, cfg)
	for i, s := range te.Samples {
		for j := range s.X {
			if s.X[j] != orig[i][j] {
				t.Fatal("PoisonTestSet mutated the source dataset")
			}
		}
	}
}

func TestGenByName(t *testing.T) {
	for _, name := range []string{"mnist", "fashion", "cifar"} {
		if _, ok := GenByName(name); !ok {
			t.Fatalf("GenByName(%q) missing", name)
		}
	}
	if _, ok := GenByName("imagenet"); ok {
		t.Fatal("unknown dataset accepted")
	}
}
