package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentCounter hammers one counter from 1, 2 and 8 goroutines and
// checks no increment is lost — the property that lets round drivers
// record drops from any worker count without coordination.
func TestConcurrentCounter(t *testing.T) {
	const perWorker = 10000
	for _, workers := range []int{1, 2, 8} {
		r := NewRegistry()
		c := r.Counter("hits_total")
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					c.Inc()
				}
			}()
		}
		wg.Wait()
		if got, want := c.Value(), uint64(workers*perWorker); got != want {
			t.Errorf("workers=%d: counter = %d, want %d", workers, got, want)
		}
	}
}

// TestConcurrentHistogram checks count, sum and per-bucket totals survive
// concurrent observation (the sum accumulates through CAS, so each worker
// observes integer values whose sum is exact in float64).
func TestConcurrentHistogram(t *testing.T) {
	const perWorker = 2000
	for _, workers := range []int{1, 2, 8} {
		r := NewRegistry()
		h := r.Histogram("lat_seconds", []float64{1, 2})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					h.Observe(float64(i % 3)) // 0, 1, 2 round-robin
				}
			}()
		}
		wg.Wait()
		total := uint64(workers * perWorker)
		s := r.Snapshot().Histograms["lat_seconds"]
		if s.Count != total {
			t.Errorf("workers=%d: count = %d, want %d", workers, s.Count, total)
		}
		// Per worker, i%3 over [0,2000) yields 667 zeros, 667 ones, 666 twos.
		if wantSum := float64(workers) * (667 + 2*666); s.Sum != wantSum {
			t.Errorf("workers=%d: sum = %g, want %g", workers, s.Sum, wantSum)
		}
		// 0 and 1 land in bucket le=1, 2 in le=2, nothing overflows.
		want := []uint64{uint64(workers) * 1334, uint64(workers) * 666, 0}
		for i, c := range s.Counts {
			if c != want[i] {
				t.Errorf("workers=%d: bucket %d = %d, want %d", workers, i, c, want[i])
			}
		}
	}
}

// TestHistogramBucketBoundaries pins the bucket edge semantics: an
// observation equal to a bound lands in that bound's bucket (inclusive
// upper bounds), anything above the last bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{0.1, 1, 10})
	cases := []struct {
		v      float64
		bucket int
	}{
		{-5, 0}, {0, 0}, {0.1, 0}, // inclusive upper bound
		{0.1000001, 1}, {1, 1},
		{5, 2}, {10, 2},
		{10.5, 3}, {math.Inf(1), 3}, // overflow bucket
	}
	want := make([]uint64, 4)
	for _, c := range cases {
		h.Observe(c.v)
		want[c.bucket]++
		s := r.Snapshot().Histograms["h"]
		for i, n := range s.Counts {
			if n != want[i] {
				t.Errorf("after observe(%g): bucket %d = %d, want %d", c.v, i, n, want[i])
			}
		}
	}
}

// TestSnapshotDeterministic renders the same registry state twice as text
// and twice as JSON and requires byte-identical output — map iteration
// order must never leak into what operators diff.
func TestSnapshotDeterministic(t *testing.T) {
	r := NewRegistry()
	// Register in an order unlike the sorted one.
	r.Counter("z_total").Add(3)
	r.Counter("a_total").Inc()
	r.Gauge("m_depth").Set(-2)
	r.Histogram("b_seconds", []float64{0.5, 5}).Observe(1.25)
	r.Histogram("a_seconds", []float64{1}).Observe(0.5)

	var t1, t2 bytes.Buffer
	if err := r.WriteText(&t1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&t2); err != nil {
		t.Fatal(err)
	}
	if t1.String() != t2.String() {
		t.Errorf("text snapshots differ:\n%s\nvs\n%s", t1.String(), t2.String())
	}
	j1, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("JSON snapshots differ:\n%s\nvs\n%s", j1, j2)
	}

	// Sorted rendering: a_total before z_total, a_seconds before b_seconds.
	text := t1.String()
	for _, pair := range [][2]string{
		{"a_total", "z_total"},
		{"a_seconds_count", "b_seconds_count"},
	} {
		if strings.Index(text, pair[0]) > strings.Index(text, pair[1]) {
			t.Errorf("text output not sorted: %q after %q in\n%s", pair[0], pair[1], text)
		}
	}
	// The cumulative bucket lines carry the configured bounds plus +Inf.
	for _, want := range []string{
		`b_seconds_bucket{le="0.5"} 0`,
		`b_seconds_bucket{le="5"} 1`,
		`b_seconds_bucket{le="+Inf"} 1`,
		"z_total 3",
		"m_depth -2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}
}

// TestRegistryGetOrCreate checks idempotent registration and the
// kind-mismatch panics.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge not idempotent")
	}
	if r.Histogram("h", []float64{1, 2}) != r.Histogram("h", []float64{1, 2}) {
		t.Error("Histogram not idempotent")
	}
	mustPanic(t, "counter as gauge", func() { r.Gauge("x") })
	mustPanic(t, "histogram rebuckets", func() { r.Histogram("h", []float64{1, 3}) })
	mustPanic(t, "unsorted buckets", func() { r.Histogram("h2", []float64{2, 1}) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// TestWellKnownMetricsRegistered spot-checks that the pre-registered M set
// is live on Default: recording through M is visible in a Default
// snapshot under the documented names.
func TestWellKnownMetricsRegistered(t *testing.T) {
	before := Default.Snapshot().Counters["fl_rounds_total"]
	M.FLRounds.Inc()
	after := Default.Snapshot().Counters["fl_rounds_total"]
	if after != before+1 {
		t.Errorf("fl_rounds_total = %d after Inc from %d", after, before)
	}
	for _, name := range []string{
		"fl_dropped_total", "fl_quorum_failures_total",
		"transport_retries_total", "defense_pruned_units_total",
	} {
		if _, ok := Default.Snapshot().Counters[name]; !ok {
			t.Errorf("well-known counter %s not registered on Default", name)
		}
	}
	if _, ok := Default.Snapshot().Histograms["fl_round_seconds"]; !ok {
		t.Error("fl_round_seconds not registered on Default")
	}
	if _, ok := Default.Snapshot().Gauges["parallel_for_queue_depth"]; !ok {
		t.Error("parallel_for_queue_depth not registered on Default")
	}
}

func ExampleRegistry_WriteText() {
	r := NewRegistry()
	r.Counter("requests_total").Add(2)
	r.Gauge("queue_depth").Set(1)
	var b bytes.Buffer
	_ = r.WriteText(&b)
	fmt.Print(b.String())
	// Output:
	// requests_total 2
	// queue_depth 1
}
