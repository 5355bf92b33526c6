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
// federations. plan declares the spec's arms on a grid; each arm's cells
// print in the spec's layout, titled Title, in the order plan declared
// the arms.
type Spec struct {
	ID, Title string
	layout    layout
	// counts are a table's integer columns.
	counts []count
	plan   func(g *grid)
}

// layout is how a spec prints its cells.
type layout int

const (
	asTable  layout = iota // renderTable
	asSeries               // renderSeries
	asPhases               // renderPhases
)

// Render prints cells, the spec's own, in the spec's layout.
func (sp Spec) Render(cells []Cell) string {
	switch sp.layout {
	case asSeries:
		return renderSeries(sp.Title, cells)
	case asPhases:
		return renderPhases(sp.Title, cells)
	}
	return renderTable(sp.Title, cells, sp.counts)
}

// setup adjusts every attacker of a built population before it trains
// (the adaptive attacks). A setup with an attack is part of the training
// key by its name.
type setup struct {
	name   string
	attack func(*fl.Attacker)
}

// arm is one measurement on a trained federation, declared by spec; its
// cells go to slot. observe, when set, runs after every training round;
// after, when set, runs once training ends and is given the training time.
type arm struct {
	spec, slot int
	observe    func(t *Trained, round int) []Cell
	after      func(t *Trained, training time.Duration) []Cell
}

// training is one distinct federation, with every arm declared on it.
// spec is the first spec that declared it.
type training struct {
	s     Scenario
	setup setup
	spec  int
	arms  []arm
}

// grid holds the planned arms of a set of specs: each distinct training
// once, in the order the specs first declared it. arms counts each spec's
// arms, and slots holds every arm's cells in declaration order, so a
// spec's arms fill a run of slots.
type grid struct {
	backend   nn.Backend
	spec      int
	arms      []int
	slots     [][]Cell
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
	a.spec, a.slot = g.spec, len(g.slots)
	tr.arms = append(tr.arms, a)
	g.slots = append(g.slots, nil)
	g.arms[g.spec]++
}

// after declares an arm that measures s's trained federation.
func (g *grid) after(s Scenario, f func(*Trained) []Cell) {
	g.add(s, setup{}, arm{after: func(t *Trained, _ time.Duration) []Cell { return f(t) }})
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

// plan declares every arm of specs on a grid over the given backend.
func plan(specs []Spec, backend nn.Backend) *grid {
	g := &grid{backend: backend, arms: make([]int, len(specs)), byKey: map[string]*training{}}
	for i, sp := range specs {
		g.spec = i
		sp.plan(g)
	}
	return g
}

// RunGrid plans every arm of specs on the given backend, trains each
// distinct federation once and runs all of its arms, then drops it before
// building the next: one trained federation is live at a time. Trainings
// run in the order the specs first declared them, so an arm may hand a
// result to the setup of a training declared after it.
//
// emit (if non-nil) receives each spec's cells, in spec order, as soon as
// that spec and every one before it are complete, with the time charged
// to it: its arms, and the trainings it was first to declare. RunGrid
// returns every spec's cells in that order, the number of (training, arm)
// pairs declared and the number of federations trained.
func RunGrid(specs []Spec, backend nn.Backend, emit func(sp Spec, cells []Cell, took time.Duration)) (cells []Cell, arms, trained int) {
	g := plan(specs, backend)
	pending := append([]int(nil), g.arms...)
	for _, n := range pending {
		arms += n
	}
	took := make([]time.Duration, len(specs))
	next, slot := 0, 0
	flush := func() {
		for ; next < len(specs) && pending[next] == 0; next++ {
			from := len(cells)
			for end := slot + g.arms[next]; slot < end; slot++ {
				cells = append(cells, g.slots[slot]...)
			}
			if emit != nil {
				emit(specs[next], cells[from:len(cells):len(cells)], took[next])
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
		measured := func(a arm, cs []Cell) {
			for _, c := range cs {
				c.Exp, c.Seed = specs[a.spec].ID, tr.s.Seed
				g.slots[a.slot] = append(g.slots[a.slot], c)
			}
		}
		training := t.Server.Train(func(round int) {
			for _, a := range tr.arms {
				if a.observe != nil {
					measured(a, a.observe(t, round))
				}
			}
		})
		took[tr.spec] += time.Since(start)
		for _, a := range tr.arms {
			start := time.Now()
			if a.after != nil {
				measured(a, a.after(t, training))
			}
			took[a.spec] += time.Since(start)
			pending[a.spec]--
		}
		flush()
	}
	return cells, arms, len(g.trainings)
}
