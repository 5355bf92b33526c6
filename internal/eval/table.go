package eval

import (
	"fmt"
	"strings"
)

// Cell is one (test accuracy, attack accuracy) measurement in percent.
type Cell struct {
	TA, AA float64
}

// Row is one experiment setting across the table's modes.
type Row struct {
	// Label describes the setting (e.g. "9->0" or a dataset name).
	Label string
	// Cells maps mode name to measurement.
	Cells map[string]Cell
	// Extra carries per-row integers (e.g. pruned-neuron counts), keyed by
	// column name; rendered after the mode cells.
	Extra map[string]int
}

// Table is a paper-style results table.
type Table struct {
	Title string
	// Modes are the cell columns, in render order.
	Modes []string
	// ExtraCols are integer columns, in render order.
	ExtraCols []string
	Rows      []Row
}

// Averages returns the per-mode mean cell over all rows.
func (t *Table) Averages() map[string]Cell {
	out := make(map[string]Cell, len(t.Modes))
	if len(t.Rows) == 0 {
		return out
	}
	for _, m := range t.Modes {
		var c Cell
		for _, r := range t.Rows {
			c.TA += r.Cells[m].TA
			c.AA += r.Cells[m].AA
		}
		n := float64(len(t.Rows))
		out[m] = Cell{TA: c.TA / n, AA: c.AA / n}
	}
	return out
}

// Render formats the table as aligned text with a trailing average row.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-14s", "setting")
	for _, m := range t.Modes {
		fmt.Fprintf(&b, " | %-13s", m)
	}
	for _, e := range t.ExtraCols {
		fmt.Fprintf(&b, " | %8s", e)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-14s", "")
	for range t.Modes {
		fmt.Fprintf(&b, " | %6s %6s", "TA", "AA")
	}
	for range t.ExtraCols {
		fmt.Fprintf(&b, " | %8s", "")
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s", r.Label)
		for _, m := range t.Modes {
			c := r.Cells[m]
			fmt.Fprintf(&b, " | %6.1f %6.1f", c.TA, c.AA)
		}
		for _, e := range t.ExtraCols {
			fmt.Fprintf(&b, " | %8d", r.Extra[e])
		}
		b.WriteString("\n")
	}
	if len(t.Rows) > 1 {
		avg := t.Averages()
		fmt.Fprintf(&b, "%-14s", "avg")
		for _, m := range t.Modes {
			c := avg[m]
			fmt.Fprintf(&b, " | %6.1f %6.1f", c.TA, c.AA)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Series is one named curve of a figure.
type Series struct {
	Name string
	X, Y []float64
}

// Figure is a paper-style figure rendered as labeled series.
type Figure struct {
	Title  string
	Series []Series
}

// Render formats the figure's series as aligned text columns.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %-28s", s.Name)
		for i := range s.X {
			fmt.Fprintf(&b, " (%g: %.1f)", s.X[i], s.Y[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}
