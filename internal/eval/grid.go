package eval

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/nn"
)

// Spec is one paper artifact, a table or a figure, as cells over trained
// federations. plan declares the spec's cells on a grid and returns the
// function that renders their results once the grid has run.
type Spec struct {
	ID   string
	plan func(g *grid) (render func() string)
}

// setup adjusts every attacker of a built population before it trains
// (the adaptive attacks). A setup with an attack is part of the training
// key by its name.
type setup struct {
	name   string
	attack func(*fl.Attacker)
}

// arm is one measurement on a trained federation, declared by spec.
// observe, when set, runs after every training round; after, when set,
// runs once training ends and is given the training time.
type arm struct {
	spec    int
	observe func(t *Trained, round int)
	after   func(t *Trained, training time.Duration)
}

// training is one distinct federation, with every arm declared on it.
// spec is the first spec that declared it.
type training struct {
	s     Scenario
	setup setup
	spec  int
	arms  []arm
}

// grid holds the planned cells of a set of specs: each distinct training
// once, in the order the specs first declared it. cells counts each spec's
// cells.
type grid struct {
	backend   nn.Backend
	spec      int
	cells     []int
	trainings []*training
	byKey     map[string]*training
}

// add declares arm a on the training of s after su, on the grid's backend.
func (g *grid) add(s Scenario, su setup, a arm) {
	s.Backend = g.backend
	key := scenarioKey(s)
	if su.attack != nil {
		key += " setup:" + su.name
	}
	tr := g.byKey[key]
	if tr == nil {
		tr = &training{s: s, setup: su, spec: g.spec}
		g.byKey[key] = tr
		g.trainings = append(g.trainings, tr)
	}
	a.spec = g.spec
	tr.arms = append(tr.arms, a)
	g.cells[g.spec]++
}

// after declares a cell that measures s's trained federation.
func (g *grid) after(s Scenario, f func(*Trained)) {
	g.add(s, setup{}, arm{after: func(t *Trained, _ time.Duration) { f(t) }})
}

// scenarioKey encodes every field of s, naming Gen and Build by their
// functions. Two scenarios share a key only if they train the same
// federation, provided Gen and Build are top-level functions: closures of
// one literal share a name whatever they capture.
func scenarioKey(s Scenario) string {
	name := func(f any) string { return runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name() }
	gen, build := name(s.Gen), name(s.Build)
	s.Gen, s.Build = nil, nil
	return fmt.Sprintf("gen:%s build:%s %#v", gen, build, s)
}

// plan declares every cell of specs on a grid over the given backend and
// returns it with each spec's render function.
func plan(specs []Spec, backend nn.Backend) (*grid, []func() string) {
	g := &grid{backend: backend, cells: make([]int, len(specs)), byKey: map[string]*training{}}
	renders := make([]func() string, len(specs))
	for i, sp := range specs {
		g.spec = i
		renders[i] = sp.plan(g)
	}
	return g, renders
}

// RunGrid plans every cell of specs on the given backend, trains each
// distinct federation once and runs all of its cells, then drops it before
// building the next: one trained federation is live at a time. Trainings
// run in the order the specs first declared them, so an arm may hand a
// result to the setup of a training declared after it.
//
// emit (if non-nil) receives each spec's rendering, in spec order, as soon
// as that spec and every one before it are complete, with the time charged
// to it: its cells, and the trainings it was first to declare. RunGrid
// returns the number of cells and of federations trained.
func RunGrid(specs []Spec, backend nn.Backend, emit func(id, text string, took time.Duration)) (cells, trained int) {
	g, renders := plan(specs, backend)
	pending := append([]int(nil), g.cells...)
	for _, n := range pending {
		cells += n
	}
	took := make([]time.Duration, len(specs))
	next := 0
	flush := func() {
		for ; next < len(specs) && pending[next] == 0; next++ {
			if emit != nil {
				emit(specs[next].ID, renders[next](), took[next])
			}
		}
	}
	flush()
	for _, tr := range g.trainings {
		start := time.Now()
		t := Build(tr.s)
		for _, a := range t.Attackers {
			if attack := tr.setup.attack; attack != nil {
				attack(a)
			}
		}
		training := t.Server.Train(func(round int) {
			for _, a := range tr.arms {
				if a.observe != nil {
					a.observe(t, round)
				}
			}
		})
		took[tr.spec] += time.Since(start)
		for _, a := range tr.arms {
			start := time.Now()
			if a.after != nil {
				a.after(t, training)
			}
			took[a.spec] += time.Since(start)
			pending[a.spec]--
		}
		flush()
	}
	return cells, len(g.trainings)
}
