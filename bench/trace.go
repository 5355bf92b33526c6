package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanID names a span inside one tracer: its index plus one, so the zero
// value means "no span".
type spanID int32

// span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers. Op is the rep (cleanse workloads) or round
// (wire workloads) the span belongs to; times are nanoseconds since the
// tracer was created.
type span struct {
	Name   string `json:"name"`
	ID     spanID `json:"id"`
	Parent spanID `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span and count of one traced section in memory; it is
// written out once, when the workload ends. A nil *tracer is the untraced
// pass: the workloads install no wrapper at all in that case, and span and
// within — the two methods the shared driver code calls — just run f.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
	// samples holds measurements taken between two seams that do not nest as
	// a span (the wait between an update finishing and its fold beginning).
	samples map[string][]float64

	// scope is the parent for spans opened at seams that receive no context
	// (a participant called by the round loop, an evaluator called by the
	// pipeline). The single goroutine driving the round or pipeline sets it;
	// concurrent workers only read it.
	scope atomic.Int32
	// op is the rep or round new spans are stamped with.
	op atomic.Int64
	// root is the span openRoot opened.
	root spanID
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]int64), samples: make(map[string][]float64)}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span under parent (0 = the current scope).
func (t *tracer) begin(name string, parent spanID) spanID {
	if parent == 0 {
		parent = spanID(t.scope.Load())
	}
	op := int(t.op.Load())
	start := t.now()
	t.mu.Lock()
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: start})
	t.mu.Unlock()
	return id
}

// end closes a span.
func (t *tracer) end(id spanID) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// reset forgets everything recorded so far. No span may be open.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.counts, t.samples = nil, make(map[string]int64), make(map[string][]float64)
	t.mu.Unlock()
}

// sample appends one measurement to a named list.
func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// enter opens a span and makes it the scope; the returned func closes it and
// restores the previous scope. Only the goroutine that drives a round or a
// pipeline may call it.
func (t *tracer) enter(name string) (spanID, func()) {
	prev := t.scope.Load()
	id := t.begin(name, spanID(prev))
	t.scope.Store(int32(id))
	return id, func() {
		t.end(id)
		t.scope.Store(prev)
	}
}

// span runs f inside a span under the current scope.
func (t *tracer) span(name string, f func()) {
	if t == nil {
		f()
		return
	}
	id := t.begin(name, 0)
	defer t.end(id)
	f()
}

// within runs f inside a span that is the scope while f runs.
func (t *tracer) within(name string, f func()) {
	if t == nil {
		f()
		return
	}
	_, leave := t.enter(name)
	defer leave()
	f()
}

// count adds d to a named counter, kept at the same boundary as the spans.
func (t *tracer) count(name string, d int64) {
	t.mu.Lock()
	t.counts[name] += d
	t.mu.Unlock()
}

// snapshot returns the closed spans, the counters and the sample lists
// recorded so far.
func (t *tracer) snapshot() ([]span, map[string]int64, map[string][]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	counts := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		counts[k] = v
	}
	samples := make(map[string][]float64, len(t.samples))
	for k, v := range t.samples {
		samples[k] = append([]float64(nil), v...)
	}
	return out, counts, samples
}

// traceFile is the on-disk form of one workload's traced section.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Spans    []span           `json:"spans"`
	Counts   map[string]int64 `json:"counts"`
}

func writeTrace(path string, tf traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by the intervals, each clipped
// to [lo, hi).
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// spanTree indexes a span set by parent.
type spanTree struct {
	spans    []span
	byID     map[spanID]int
	children map[spanID][]int
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, byID: make(map[spanID]int, len(spans)), children: make(map[spanID][]int)}
	for i, s := range spans {
		t.byID[s.ID] = i
	}
	for i, s := range spans {
		t.children[s.Parent] = append(t.children[s.Parent], i)
	}
	return t
}

// self is a span's duration minus the part of it its direct children cover;
// overlapping (concurrent) children are counted once.
func (t *spanTree) self(i int) int64 {
	s := t.spans[i]
	kids := t.children[s.ID]
	ivs := make([]interval, len(kids))
	for k, c := range kids {
		ivs[k] = interval{t.spans[c].Start, t.spans[c].End}
	}
	return s.dur() - unionLen(ivs, s.Start, s.End)
}

// named returns the indices of the spans with the given name.
func (t *spanTree) named(name string) []int {
	var out []int
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, i)
		}
	}
	return out
}

// durations returns the durations of the named spans in the given unit
// (nanoseconds per unit).
func (t *spanTree) durations(name string, unit float64) []float64 {
	idx := t.named(name)
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = float64(t.spans[i].dur()) / unit
	}
	return out
}

// selfTimes returns the self times of the named spans in the given unit.
func (t *spanTree) selfTimes(name string, unit float64) []float64 {
	idx := t.named(name)
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = float64(t.self(i)) / unit
	}
	return out
}

// groupExtent returns, for every parent that has children with the given
// name, the time from the first such child's start to the last one's end.
func (t *spanTree) groupExtent(name string, unit float64) []float64 {
	type ext struct{ lo, hi int64 }
	groups := make(map[spanID]*ext)
	var order []spanID
	for _, i := range t.named(name) {
		s := t.spans[i]
		g := groups[s.Parent]
		if g == nil {
			groups[s.Parent] = &ext{s.Start, s.End}
			order = append(order, s.Parent)
			continue
		}
		if s.Start < g.lo {
			g.lo = s.Start
		}
		if s.End > g.hi {
			g.hi = s.End
		}
	}
	out := make([]float64, len(order))
	for k, p := range order {
		out[k] = float64(groups[p].hi-groups[p].lo) / unit
	}
	return out
}

// stageRow is one line of the per-stage roll-up: how often a stage ran, its
// summed busy time, the wall time during which at least one of its spans was
// open (its share of the blocking path when stages run concurrently), its
// self time, and the blocking time as a share of the root.
type stageRow struct {
	Stage      string  `json:"stage"`
	Calls      int     `json:"calls"`
	BusyMS     float64 `json:"busy_ms"`
	BlockingMS float64 `json:"blocking_ms"`
	SelfMS     float64 `json:"self_ms"`
	PctOfRoot  float64 `json:"pct_of_root"`
}

// rollup folds the spans under root into one row per stage name, ordered by
// blocking time. The root itself is the first row.
func rollup(spans []span, root spanID) []stageRow {
	t := newSpanTree(spans)
	ri, ok := t.byID[root]
	if !ok {
		return nil
	}
	rootDur := float64(t.spans[ri].dur())
	type acc struct {
		calls      int
		busy, self int64
		ivs        []interval
	}
	stages := make(map[string]*acc)
	var walk func(i int)
	walk = func(i int) {
		s := t.spans[i]
		a := stages[s.Name]
		if a == nil {
			a = &acc{}
			stages[s.Name] = a
		}
		a.calls++
		a.busy += s.dur()
		a.self += t.self(i)
		a.ivs = append(a.ivs, interval{s.Start, s.End})
		for _, c := range t.children[s.ID] {
			walk(c)
		}
	}
	walk(ri)
	rows := make([]stageRow, 0, len(stages))
	for name, a := range stages {
		blocking := unionLen(a.ivs, t.spans[ri].Start, t.spans[ri].End)
		row := stageRow{
			Stage:      name,
			Calls:      a.calls,
			BusyMS:     float64(a.busy) / 1e6,
			BlockingMS: float64(blocking) / 1e6,
			SelfMS:     float64(a.self) / 1e6,
		}
		if rootDur > 0 {
			row.PctOfRoot = 100 * float64(blocking) / rootDur
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Stage == t.spans[ri].Name || rows[j].Stage == t.spans[ri].Name {
			return rows[i].Stage == t.spans[ri].Name
		}
		if rows[i].BlockingMS != rows[j].BlockingMS {
			return rows[i].BlockingMS > rows[j].BlockingMS
		}
		return rows[i].Stage < rows[j].Stage
	})
	return rows
}

// printRollup writes the roll-up as the table a later `fedtrace -breakdown`
// over the program's own spans can be diffed against.
func printRollup(w io.Writer, workload string, rows []stageRow) {
	fmt.Fprintf(w, "# %s roll-up: stage calls busy_ms blocking_ms self_ms pct_of_root\n", workload)
	for _, r := range rows {
		fmt.Fprintf(w, "# %-36s %7d %12.2f %12.2f %12.2f %7.2f\n",
			r.Stage, r.Calls, r.BusyMS, r.BlockingMS, r.SelfMS, r.PctOfRoot)
	}
}
