package eval

import (
	"fmt"
	"slices"
	"strings"
)

// Cell is one measurement: what one arm measured on one trained
// federation. Exp, Row, Arm, X and Seed key it. A table's cell sits in
// row Row and column Arm; a figure's cell is the point at X of the series
// labelled Arm.
type Cell struct {
	Exp, Row, Arm string
	X             float64
	Seed          int64
	// TA and AA are the test and attack accuracy, in percent.
	TA, AA float64
	// Pruned, Delta, Zeroed and FineTuned are a defense arm's report: the
	// units left pruned, the last Δ whose clip was kept, the weights zeroed
	// and the fine-tuning rounds run.
	Pruned, Zeroed, FineTuned int
	Delta                     float64
	// Seconds are Fig. 9's wall seconds per phase: training, pruning,
	// fine-tuning, AW.
	Seconds []float64
}

// count is a table's integer column: a count from one arm's cell.
type count struct {
	name, arm string
	of        func(Cell) int
}

var (
	prunedCount = func(c Cell) int { return c.Pruned }
	zeroedCount = func(c Cell) int { return c.Zeroed }
)

// renderTable prints cells as a table: a row per Row and a TA/AA column
// per Arm, each in the order the cells first name it, then the integer
// columns, and an avg row of the TA/AA columns under two rows or more. The
// setting column and each arm's column widen to fit their longest label.
func renderTable(title string, cells []Cell, counts []count) string {
	var rows, arms []string
	at := map[[2]string]Cell{}
	for _, c := range cells {
		if !slices.Contains(rows, c.Row) {
			rows = append(rows, c.Row)
		}
		if !slices.Contains(arms, c.Arm) {
			arms = append(arms, c.Arm)
		}
		at[[2]string{c.Row, c.Arm}] = c
	}
	setting := 14
	for _, r := range rows {
		setting = max(setting, len(r))
	}
	// taw is each arm's TA field width: the AA field after it is 6 wide.
	taw := make([]int, len(arms))
	for i, a := range arms {
		taw[i] = max(13, len(a)) - 7
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-*s", title, setting, "setting")
	for i, a := range arms {
		fmt.Fprintf(&b, " | %-*s", taw[i]+7, a)
	}
	for _, k := range counts {
		fmt.Fprintf(&b, " | %8s", k.name)
	}
	fmt.Fprintf(&b, "\n%-*s", setting, "")
	for i := range arms {
		fmt.Fprintf(&b, " | %*s %6s", taw[i], "TA", "AA")
	}
	for range counts {
		fmt.Fprintf(&b, " | %8s", "")
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s", setting, r)
		for i, a := range arms {
			c := at[[2]string{r, a}]
			fmt.Fprintf(&b, " | %*.1f %6.1f", taw[i], c.TA, c.AA)
		}
		for _, k := range counts {
			fmt.Fprintf(&b, " | %8d", k.of(at[[2]string{r, k.arm}]))
		}
		b.WriteString("\n")
	}
	if len(rows) > 1 {
		fmt.Fprintf(&b, "%-*s", setting, "avg")
		for i, a := range arms {
			var ta, aa float64
			for _, r := range rows {
				ta += at[[2]string{r, a}].TA
				aa += at[[2]string{r, a}].AA
			}
			n := float64(len(rows))
			fmt.Fprintf(&b, " | %*.1f %6.1f", taw[i], ta/n, aa/n)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// renderSeries prints cells as a figure: per series label, in the order
// the cells first name it, a "TA label" and an "AA label" line of (x: y)
// points in cell order.
func renderSeries(title string, cells []Cell) string {
	var labels []string
	points := map[string][]Cell{}
	for _, c := range cells {
		if points[c.Arm] == nil {
			labels = append(labels, c.Arm)
		}
		points[c.Arm] = append(points[c.Arm], c)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, l := range labels {
		ta, aa := fmt.Sprintf("  %-28s", "TA "+l), fmt.Sprintf("  %-28s", "AA "+l)
		for _, c := range points[l] {
			ta += fmt.Sprintf(" (%g: %.1f)", c.X, c.TA)
			aa += fmt.Sprintf(" (%g: %.1f)", c.X, c.AA)
		}
		b.WriteString(ta + "\n" + aa + "\n")
	}
	return b.String()
}

// renderPhases prints Fig. 9: a row of phase seconds per cell.
func renderPhases(title string, cells []Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-8s %10s %10s %10s %10s\n", title, "dataset", "training", "pruning", "fine-tune", "aw")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-8s", c.Row)
		for _, s := range c.Seconds {
			fmt.Fprintf(&b, " %10.2f", s)
		}
		b.WriteString("\n")
	}
	return b.String()
}
