package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// coord is one parameter coordinate: the index of the Param in the layer's
// Params() and the flat index into it.
type coord struct{ param, i int }

// maskCases are small random layers of each Prunable type, with the input
// shape of a training pass and, per unit, the coordinates the unit is made
// of in AppendUnitState order.
func maskCases() []struct {
	layer Prunable
	in    []int
	unit  func(u int) []coord
} {
	rng := rand.New(rand.NewSource(31))
	return []struct {
		layer Prunable
		in    []int
		unit  func(u int) []coord
	}{
		{ // row u of W (3 × 2·3·3), then B[u]
			NewConv2D("conv", tensor.ConvDims{C: 2, H: 4, W: 4, K: 3, Stride: 1, Pad: 1}, 3, rng),
			[]int{2, 2, 4, 4},
			func(u int) (cs []coord) {
				for k := 0; k < 18; k++ {
					cs = append(cs, coord{0, u*18 + k})
				}
				return append(cs, coord{1, u})
			},
		},
		{ // column u of W (4 × 3), then B[u]
			NewDense("fc", 4, 3, rng),
			[]int{2, 4},
			func(u int) (cs []coord) {
				for r := 0; r < 4; r++ {
					cs = append(cs, coord{0, r*3 + u})
				}
				return append(cs, coord{1, u})
			},
		},
		{ // γ[u], β[u]; the running statistics are not part of a unit
			NewBatchNorm2D("bn", 3),
			[]int{2, 3, 2, 2},
			func(u int) []coord { return []coord{{0, u}, {1, u}} },
		},
	}
}

// TestPruneUnitTouchesExactlyTheUnit checks, for every unit of a Conv2D, a
// Dense and a BatchNorm2D layer, that pruning zeroes exactly the unit's
// coordinates (and nothing else, in values or in gradients), that the unit
// stays zero through EnforceMask and SetParamsVector, that its output is
// exactly zero, and that SetUnitState round-trips values and flag.
func TestPruneUnitTouchesExactlyTheUnit(t *testing.T) {
	for _, tc := range maskCases() {
		name := tc.layer.Name()
		// Every coordinate holds a distinct non-zero marker, so a unit's
		// state names its coordinates.
		marker := 0.0
		for _, p := range tc.layer.Params() {
			for i := range p.Value.Data {
				marker++
				p.Value.Data[i] = marker
			}
		}
		orig := tc.layer.CloneLayer().(Prunable)
		for u := 0; u < tc.layer.Units(); u++ {
			want := tc.unit(u)
			inUnit := map[coord]bool{}
			var wantState []float64
			for _, c := range want {
				inUnit[c] = true
				wantState = append(wantState, orig.Params()[c.param].Value.Data[c.i])
			}
			state := orig.AppendUnitState(nil, u)
			bitsEqualSlice(t, fmt.Sprintf("%s unit %d state", name, u), state, wantState)

			l := orig.CloneLayer().(Prunable)
			l.PruneUnit(u)
			if !l.UnitPruned(u) || l.PrunedCount() != 1 {
				t.Fatalf("%s unit %d: pruned %v, count %d", name, u, l.UnitPruned(u), l.PrunedCount())
			}
			checkValues := func(what string) {
				t.Helper()
				for pi, p := range l.Params() {
					for i, v := range p.Value.Data {
						w := orig.Params()[pi].Value.Data[i]
						if inUnit[coord{pi, i}] {
							w = 0
						}
						if math.Float64bits(v) != math.Float64bits(w) {
							t.Fatalf("%s unit %d %s: %s[%d] = %v, want %v", name, u, what, p.Name, i, v, w)
						}
					}
				}
			}
			checkValues("after PruneUnit")

			// A raw overwrite is re-zeroed by EnforceMask, and by
			// SetParamsVector on a model holding the layer.
			for pi, p := range l.Params() {
				copy(p.Value.Data, orig.Params()[pi].Value.Data)
			}
			l.EnforceMask()
			checkValues("after an overwrite and EnforceMask")
			var v []float64
			for _, p := range orig.Params() {
				v = append(v, p.Value.Data...)
			}
			NewSequential(l).SetParamsVector(v)
			checkValues("after SetParamsVector")

			// SetUnitState round-trips the values and the flag.
			l.SetUnitState(u, state, false)
			if l.UnitPruned(u) || l.PrunedCount() != 0 {
				t.Fatalf("%s unit %d still pruned after SetUnitState(false)", name, u)
			}
			for pi, p := range l.Params() {
				bitsEqualSlice(t, name+" restored "+p.Name, p.Value.Data, orig.Params()[pi].Value.Data)
			}
			l.SetUnitState(u, state, true)
			if !l.UnitPruned(u) {
				t.Fatalf("%s unit %d: SetUnitState(true) did not set the flag", name, u)
			}
			bitsEqualSlice(t, name+" state after SetUnitState(true)", l.AppendUnitState(nil, u), state)
			l.EnforceMask()
			checkValues("after SetUnitState(true) and EnforceMask")

			// A training pass: exactly the unit's gradients are zero, and
			// so is its output, in training and in inference.
			rng := rand.New(rand.NewSource(int64(32 + u)))
			x := tensor.New(tc.in...)
			x.Randn(rng, 1)
			out := l.Forward(x, true)
			checkUnitOut(t, name+" train", out, u, l.Units())
			dout := tensor.New(out.Shape()...)
			dout.Randn(rng, 1)
			l.Backward(dout)
			for pi, p := range l.Params() {
				if p.Stat {
					continue
				}
				for i, g := range p.Grad.Data {
					if (g == 0) != inUnit[coord{pi, i}] {
						t.Fatalf("%s unit %d: %s grad[%d] = %v", name, u, p.Name, i, g)
					}
				}
			}
			checkUnitOut(t, name+" inference", l.Forward(x, false), u, l.Units())

		}

		for _, bad := range []func(){
			func() { tc.layer.PruneUnit(-1) },
			func() { tc.layer.PruneUnit(tc.layer.Units()) },
			func() { tc.layer.SetUnitState(0, make([]float64, len(tc.unit(0))+1), false) },
			func() { tc.layer.SetUnitState(0, nil, false) },
		} {
			if msg := panicMessage(bad); !strings.Contains(msg, name+":") {
				t.Fatalf("%s: panic %q does not name the layer", name, msg)
			}
		}
	}
}

// checkUnitOut fails unless unit u's slice of every sample of out, an
// (N, units, …) batch, is exactly zero.
func checkUnitOut(t *testing.T, what string, out *tensor.Tensor, u, units int) {
	t.Helper()
	n := out.Dim(0)
	plane := out.Len() / (n * units)
	for s := 0; s < n; s++ {
		for _, v := range out.Data[(s*units+u)*plane : (s*units+u+1)*plane] {
			if v != 0 {
				t.Fatalf("%s: pruned unit %d of sample %d emits %v", what, u, s, v)
			}
		}
	}
}

// panicMessage runs f and returns what it panicked with, "" if nothing.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
