package nn

import (
	"math/rand"
	"sync"
	"testing"
)

// TestClonePreservesParamFlags: every way of deriving a model from another
// — Clone, a replica — carries Name, L2, NoDecay and Stat of
// every parameter of every layer type (MiniVGG has all six: Conv2D,
// BatchNorm2D, ReLU, MaxPool2D, Flatten, Dense).
//
// Param.clone used to drop Stat, so a cloned BatchNorm's running statistics
// looked trainable to the optimizer and to anything else consulting the
// flag. That was numerically neutral only by coincidence: running
// statistics are NoDecay with no L2, nothing writes their gradient, and a
// zero gradient moves a value by −LR·0 whatever the momentum — which is why
// fixing it moved no pinned hash (pinned_amd64_test.go). The flags are set
// to a per-parameter pattern here so no default can hide a dropped one.
func TestClonePreservesParamFlags(t *testing.T) {
	src := NewMiniVGG(Input{C: 3, H: 16, W: 16}, 10, rand.New(rand.NewSource(1)))
	kinds := map[string]bool{}
	for _, l := range src.layers {
		switch l.(type) {
		case *Conv2D:
			kinds["conv"] = true
		case *BatchNorm2D:
			kinds["bn"] = true
		case *ReLU:
			kinds["relu"] = true
		case *MaxPool2D:
			kinds["pool"] = true
		case *Flatten:
			kinds["flatten"] = true
		case *Dense:
			kinds["dense"] = true
		default:
			t.Fatalf("layer type %T is not covered by this test", l)
		}
	}
	if len(kinds) != 6 {
		t.Fatalf("MiniVGG covers layer kinds %v, want all six", kinds)
	}
	stats := 0
	for i, p := range src.Params() {
		if p.Stat {
			stats++
		}
		p.L2 = 1e-3 * float64(i+1)
		p.NoDecay = i%2 == 0
		p.Stat = p.Stat != (i%3 == 0)
	}
	if stats != 14 {
		t.Fatalf("MiniVGG marks %d running-statistic parameters, want 14 (7 BatchNorm layers)", stats)
	}

	derived := map[string]*Sequential{
		"Clone":    src.Clone(),
		"Replicas": src.Replicas().Get().Model,
	}
	for how, m := range derived {
		got, want := m.Params(), src.Params()
		if len(got) != len(want) {
			t.Fatalf("%s: %d parameters, want %d", how, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g == w {
				t.Fatalf("%s: parameter %s is shared, not copied", how, w.Name)
			}
			if g.Name != w.Name || g.L2 != w.L2 || g.NoDecay != w.NoDecay || g.Stat != w.Stat {
				t.Errorf("%s: %s came out as {Name:%s L2:%g NoDecay:%v Stat:%v}, want {L2:%g NoDecay:%v Stat:%v}",
					how, w.Name, g.Name, g.L2, g.NoDecay, g.Stat, w.L2, w.NoDecay, w.Stat)
			}
		}
	}
}

// TestReplicasGrowWithConcurrencyOnly: a replica is made only when none is
// free, the most recently returned one is handed out first, and the list
// snapshots the template when it is anchored — later masks on the template
// do not reach the replicas.
func TestReplicasGrowWithConcurrencyOnly(t *testing.T) {
	template := NewSmallCNN(Input{C: 1, H: 16, W: 16}, 10, rand.New(rand.NewSource(3)))
	list := template.Replicas()
	if template.Replicas() != list {
		t.Fatal("a template has two lists")
	}
	if template.Clone().Replicas() == list {
		t.Fatal("a clone shares its source's list")
	}
	template.PruneModelUnit(template.LastConvIndex(), 0)

	var last *Replica
	for i := 0; i < 5; i++ {
		r := list.Get()
		if last != nil && r != last {
			t.Fatal("a free replica was passed over")
		}
		if r.Model.Layer(template.LastConvIndex()).(Prunable).PrunedCount() != 0 {
			t.Fatal("a mask added to the template after anchoring reached a replica")
		}
		list.Put(r)
		last = r
	}
	if list.Made() != 1 {
		t.Fatalf("serial borrowing made %d replicas, want 1", list.Made())
	}
	a, b := list.Get(), list.Get()
	if a == b || a.Model == b.Model {
		t.Fatal("one replica lent twice")
	}
	list.Put(a)
	list.Put(b)
	if r := list.Get(); r != b {
		t.Fatal("Get did not return the most recently returned replica")
	}
	if list.Made() != 2 {
		t.Fatalf("two concurrent borrowers made %d replicas, want 2", list.Made())
	}
}

// TestReplicasConcurrentBorrowers: eight goroutines borrowing at once never
// hold the same replica, and the list ends no longer than eight.
func TestReplicasConcurrentBorrowers(t *testing.T) {
	template := NewSmallCNN(Input{C: 1, H: 16, W: 16}, 10, rand.New(rand.NewSource(4)))
	list := template.Replicas()
	const borrowers, turns = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < borrowers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < turns; i++ {
				r := list.Get()
				// A plain write: the race detector reports two holders.
				r.Model.Params()[0].Value.Data[0] = float64(g)
				r.Aux = g
				list.Put(r)
			}
		}(g)
	}
	wg.Wait()
	if n := list.Made(); n < 1 || n > borrowers {
		t.Fatalf("%d borrowers made %d replicas", borrowers, n)
	}
}
