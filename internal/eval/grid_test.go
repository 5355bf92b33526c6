package eval

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/nn"
)

// TestScenarioKeyCoversEveryField perturbs every leaf field of a Scenario
// in turn and checks that the training key changes, so a field added later
// cannot let two different federations share one training.
func TestScenarioKeyCoversEveryField(t *testing.T) {
	fresh := func() Scenario { return MNISTScenario(9, 2) }
	base := scenarioKey(fresh())
	others := map[reflect.Type]any{
		reflect.TypeOf(fresh().Gen):   dataset.GenSynthFashion,
		reflect.TypeOf(fresh().Build): nn.NewLargeCNN,
	}
	// leaves lists the path (field or element indices) to every leaf.
	var leaves [][]int
	var walk func(v reflect.Value, path []int)
	walk = func(v reflect.Value, path []int) {
		switch {
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), append(append([]int(nil), path...), i))
			}
		case v.Kind() == reflect.Slice && v.Len() > 0:
			walk(v.Index(0), append(append([]int(nil), path...), 0))
		default:
			leaves = append(leaves, path)
		}
	}
	walk(reflect.ValueOf(fresh()), nil)
	for _, path := range leaves {
		s := fresh()
		v, name := reflect.ValueOf(&s).Elem(), "Scenario"
		for _, i := range path {
			if v.Kind() == reflect.Slice {
				v, name = v.Index(i), name+"[0]"
			} else {
				v, name = v.Field(i), name+"."+v.Type().Field(i).Name
			}
		}
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		case reflect.Func:
			v.Set(reflect.ValueOf(others[v.Type()]))
		default:
			t.Fatalf("%s: no perturbation for kind %v", name, v.Kind())
		}
		if scenarioKey(s) == base {
			t.Errorf("%s: changing it leaves the training key unchanged", name)
		}
	}
	if len(leaves) < 25 {
		t.Fatalf("walked %d leaf fields, want every field of Scenario", len(leaves))
	}
}

// TestQuickGridPlan pins the plan of fedbench -exp all without training
// anything: 58 cells, each spec's count in order, over 30 distinct
// federations.
func TestQuickGridPlan(t *testing.T) {
	specs := Specs(PaperSweep(false))
	g := plan(specs, nn.Float64)
	if len(specs) != 18 {
		t.Fatalf("%d specs, want 18", len(specs))
	}
	total := 0
	for _, n := range g.arms {
		total += n
	}
	want := "[3 3 3 3 3 6 5 3 2 2 3 4 3 3 1 5 1 5]"
	if got := fmt.Sprint(g.arms); got != want || total != 58 || len(g.trainings) != 30 {
		t.Fatalf("%s = %d cells over %d trainings, want %s = 58 over 30", got, total, len(g.trainings), want)
	}
}

// toy is a two-round MNIST federation small enough for tier-1.
func toy(p Pair) Scenario {
	s := MNISTScenario(p.VL, p.AL)
	s.GenCfg.TrainPerClass, s.GenCfg.TestPerClass = 40, 20
	s.Clients, s.PerClient = 4, 40
	s.FL.Rounds = 2
	return s
}

// TestSharedTrainingsRenderAsAlone is the sharing oracle: specs whose cells
// share trainings (a defense table, training curves, the adaptive attacks
// with their shadow order) render the same bytes in one grid as each does
// in a grid of its own, and the grid trains each shared federation once.
func TestSharedTrainingsRenderAsAlone(t *testing.T) {
	specs := []Spec{
		{ID: "modes", Title: "modes", plan: func(g *grid) {
			modeTable(g, []Pair{{9, 2}, {9, 0}}, []string{"fp", "all"}, toy)
		}},
		{ID: "curves", Title: "curves", layout: asSeries, plan: func(g *grid) {
			for _, l := range []float64{0, 0.05} {
				s := toy(Pair{9, 2})
				s.LastConvL2 = l
				curve(g, s, fmt.Sprint(l))
			}
		}},
		adaptive(toy(Pair{9, 2})),
	}
	alone := map[string]string{}
	for _, sp := range specs {
		RunGrid([]Spec{sp}, nn.Float64, func(sp Spec, cs []Cell, _ time.Duration) { alone[sp.ID] = sp.Render(cs) })
	}
	var order []string
	var emitted []Cell
	cells, arms, trained := RunGrid(specs, nn.Float64, func(sp Spec, cs []Cell, _ time.Duration) {
		id, text := sp.ID, sp.Render(cs)
		order = append(order, id)
		emitted = append(emitted, cs...)
		if text != alone[id] {
			t.Errorf("%s in a shared grid:\n%s\nalone:\n%s", id, text, alone[id])
		}
	})
	if fmt.Sprint(order) != "[modes curves adaptive]" {
		t.Fatalf("emitted %v, want the specs in order", order)
	}
	// modes: 9->2, 9->0; curves: λ=0.05; adaptive: three attacker setups.
	if trained != 6 || arms != 2+2+5 {
		t.Fatalf("%d cells over %d trainings, want 9 over 6", arms, trained)
	}
	// RunGrid returns what it emitted, each cell keyed by its spec and seed.
	if !reflect.DeepEqual(cells, emitted) {
		t.Fatalf("RunGrid returned %d cells, emitted %d", len(cells), len(emitted))
	}
	for _, c := range cells {
		if c.Exp == "" || c.Seed != toy(Pair{9, 2}).Seed {
			t.Fatalf("cell %+v lacks its experiment or seed", c)
		}
	}
}
