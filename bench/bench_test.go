package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestToyWorkloads runs every workload's traced pass — which runs an untraced
// section first — at toy size, so `go test ./...` breaks when an API the
// benchmark needs moves. It checks shape, not speed.
func TestToyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four small federations")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := runWorkload(runSpec{Workload: name, Seed: 1, Seconds: 1, Trace: true, Toy: true, OutDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Failures)
			}
			for _, d := range endToEnd {
				if m, ok := res.EndToEnd[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
				}
			}
			for _, d := range perLayer {
				m, ok := res.PerLayer[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer %s = %+v (present %v), want a finite value in %s", d.Name, m, ok, d.Unit)
				}
			}
			if len(res.Rollup) == 0 || res.Rollup[0].Stage != "bench.workload" {
				t.Errorf("roll-up does not start at the root: %+v", res.Rollup)
			}
			// The layers that do the work in this workload must have been seen.
			busy := "fl.local_update_ms"
			if name == "wire_batch" || name == "wire_stream_durable" {
				busy = "transport.update_call_p50_us"
			}
			if res.PerLayer[busy].N == 0 {
				t.Errorf("%s has no samples", busy)
			}
		})
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %g, want 2", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}
}

// TestTailPercentile pins the rule for which percentile a timing may be
// reported at: the highest with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := samplesBeyond(100, 90); got != 10 {
		t.Errorf("samplesBeyond(100, 90) = %d, want 10", got)
	}
}

// TestQuartiles checks the spread against values computed with Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 12, 11, 15, 13})
	if q1 != 10.5 || q3 != 14 {
		t.Errorf("quartiles = %g, %g, want 10.5, 14", q1, q3)
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spreadShare(1..10) = %g, want 1", got)
	}
}

func TestUnionLen(t *testing.T) {
	ivs := []interval{{10, 30}, {20, 50}, {70, 80}, {-5, 5}, {95, 120}, {40, 45}}
	if got := unionLen(ivs, 0, 100); got != 5+40+10+5 {
		t.Errorf("unionLen = %d, want 60", got)
	}
	if got := unionLen(nil, 0, 100); got != 0 {
		t.Errorf("unionLen of nothing = %d", got)
	}
}

// TestSelfTime: a span's self time excludes what its children cover, with
// concurrent children counted once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "work", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "work", ID: 3, Parent: 1, Start: 20, End: 50},
		{Name: "io", ID: 4, Parent: 1, Start: 70, End: 80},
		{Name: "leaf", ID: 5, Parent: 3, Start: 25, End: 35},
	}
	tree := newSpanTree(spans)
	if got := tree.self(tree.byID[1]); got != 50 {
		t.Errorf("root self = %d, want 50", got)
	}
	if got := tree.self(tree.byID[3]); got != 20 {
		t.Errorf("span 3 self = %d, want 20", got)
	}
	if got := tree.groupExtent("work", 1); len(got) != 1 || got[0] != 40 {
		t.Errorf("groupExtent(work) = %v, want [40]", got)
	}
	rows := rollup(spans, 1)
	if len(rows) != 4 || rows[0].Stage != "root" {
		t.Fatalf("rollup = %+v", rows)
	}
	for _, r := range rows {
		if r.Stage == "work" {
			// busy sums both spans, blocking is their union.
			if r.Calls != 2 || r.BusyMS != 50e-6 || r.BlockingMS != 40e-6 || r.PctOfRoot != 40 {
				t.Errorf("work row = %+v", r)
			}
		}
	}
}

// TestSpanParents: spans opened at a seam without context hang off the scope,
// explicit parents win, and leaving a scope restores the one before.
func TestSpanParents(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0)
	tr.scope.Store(int32(root))
	tr.op.Store(7)
	round, leave := tr.enter("round")
	a := tr.begin("update", 0)
	b := tr.begin("rtt", a)
	tr.end(b)
	tr.end(a)
	leave()
	after := tr.begin("collect", 0)
	tr.end(after)
	open := tr.begin("never closed", 0)
	tr.end(root)
	tr.count("bytes", 3)
	tr.count("bytes", 4)

	spans, counts, _ := tr.snapshot()
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if _, ok := byName["never closed"]; ok || len(spans) != 5 {
		t.Errorf("open span %d must not be in the snapshot: %+v", open, spans)
	}
	want := map[string]spanID{"round": root, "update": round, "rtt": a, "collect": root, "root": 0}
	for name, parent := range want {
		if got := byName[name].Parent; got != parent {
			t.Errorf("%s parent = %d, want %d", name, got, parent)
		}
	}
	if byName["update"].Op != 7 {
		t.Errorf("op = %d, want 7", byName["update"].Op)
	}
	if counts["bytes"] != 7 {
		t.Errorf("count = %d, want 7", counts["bytes"])
	}
}

func TestCompareBound(t *testing.T) {
	lower := metricDef{Name: "latency", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"same", lower, steady, steady, verdictAgree},
		{"lower metric up 5%", lower, steady, scale(1.05), verdictAgree},
		{"lower metric up 15%", lower, steady, scale(1.15), verdictRegressed},
		{"lower metric down 15%", lower, steady, scale(0.85), verdictAgree},
		{"higher metric down 15%", higher, steady, scale(0.85), verdictRegressed},
		{"higher metric up 15%", higher, steady, scale(1.15), verdictAgree},
		{"noisy side", lower, steady, []float64{80, 100, 120, 90, 130}, verdictUnresolved},
		{"single runs", lower, []float64{100}, []float64{120}, verdictRegressed},
	} {
		if got, _ := compareBound(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestAgreeFiles drives -agree over result files on disk.
func TestAgreeFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency float64, hash string) string {
		e2e := map[string]metric{}
		for _, d := range endToEnd {
			e2e[d.Name] = metric{Value: 100, Unit: d.Unit, N: 1}
		}
		e2e["round_p50_ms"] = metric{Value: latency, Unit: "ms", N: 1}
		f := resultFile{Seed: 1, Runs: []*runResult{{Workload: workloadNames[0], Seed: 1, EndToEnd: e2e,
			Info: map[string]any{"defended_model_hash": []string{hash}}}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("results-a.json", 100, "abc")
	if code := runAgree(io.Discard, base, write("results-b.json", 104, "abc")); code != 0 {
		t.Errorf("4%% worse: exit %d, want 0", code)
	}
	if code := runAgree(io.Discard, base, write("results-c.json", 130, "abc")); code != 1 {
		t.Errorf("30%% worse: exit %d, want 1", code)
	}
	if code := runAgree(io.Discard, base, write("results-d.json", 100, "xyz")); code != 1 {
		t.Errorf("different model hash: exit %d, want 1", code)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step with
// the metric and workload definitions compiled into the benchmark.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d = %q (why: %d chars), want %q with a why of 1..200 chars", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d = %+v, want %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound %v, want bounded=%v %g", kind, d.Name, g.Bound, bounded, d.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
	maxBound := 0.0
	for _, d := range endToEnd {
		maxBound = math.Max(maxBound, d.Bound)
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != maxBound || maxBound > 0.25 {
		t.Errorf("setup_s must come first and carry the largest bound (at most 0.25)")
	}
}
