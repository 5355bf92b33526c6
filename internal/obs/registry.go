package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from a Registry so they appear in snapshots.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value (queue depths, in-flight work).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets chosen at registration
// time. bounds[i] is the inclusive upper bound of bucket i; one implicit
// overflow bucket (+Inf) catches everything larger. Observe is lock-free
// and allocation-free: one linear scan over the (small, fixed) bounds,
// three atomic updates.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sum     atomicFloat
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// atomicFloat accumulates a float64 through CAS on its bit pattern, so
// concurrent Observe calls never lose updates and never allocate.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Registry owns a fixed set of named metrics. Registration (Counter,
// Gauge, Histogram) takes a lock and may allocate; it happens once, at
// construction time of the instrumented component. The returned pointers
// are then updated lock-free, so the hot path never touches the registry
// again. Names follow the prometheus-style snake_case scheme documented in
// DESIGN.md §11 (_total for counters, _seconds for latency histograms).
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Registering the same name as a different metric kind panics.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFresh(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFresh(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds (which must be sorted ascending) on first
// use. A second registration must pass identical bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		if !equalBounds(h.bounds, bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
		}
		return h
	}
	r.checkFresh(name, "histogram")
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not sorted ascending", name))
		}
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	r.histograms[name] = h
	return h
}

// checkFresh panics when name already names a metric of another kind.
// Callers hold r.mu.
func (r *Registry) checkFresh(name, kind string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a counter, not a %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a gauge, not a %s", name, kind))
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a histogram, not a %s", name, kind))
	}
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// HistogramSnapshot is one histogram's state at snapshot time. Counts has
// len(Bounds)+1 entries; the last is the overflow (+Inf) bucket. Counts
// are per-bucket, not cumulative.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// Snapshot is a point-in-time copy of every registered metric. Map keys
// marshal in sorted order (encoding/json sorts string keys), so two
// snapshots of identical state produce byte-identical JSON.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every registered metric. Individual
// metric reads are atomic; the snapshot as a whole is not a consistent cut
// across metrics (fine for monitoring, meaningless differences only while
// concurrent writers run).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Count:  h.count.Load(),
			Sum:    h.sum.load(),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.buckets)),
		}
		for i := range h.buckets {
			hs.Counts[i] = h.buckets[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON with sorted keys.
func (r *Registry) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// WriteText writes the snapshot in a prometheus-style text format: one
// `name value` line per counter and gauge, and per histogram the _count,
// _sum and cumulative _bucket{le="..."} series. Lines are sorted by metric
// name within each section, so identical state renders identically.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	var b []byte
	for _, name := range sortedKeys(s.Counters) {
		b = append(b, name...)
		b = append(b, ' ')
		b = strconv.AppendUint(b, s.Counters[name], 10)
		b = append(b, '\n')
	}
	for _, name := range sortedKeys(s.Gauges) {
		b = append(b, name...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, s.Gauges[name], 10)
		b = append(b, '\n')
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		cum := uint64(0)
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = strconv.FormatFloat(h.Bounds[i], 'g', -1, 64)
			}
			b = append(b, name...)
			b = append(b, `_bucket{le="`...)
			b = append(b, le...)
			b = append(b, `"} `...)
			b = strconv.AppendUint(b, cum, 10)
			b = append(b, '\n')
		}
		b = append(b, name...)
		b = append(b, "_sum "...)
		b = strconv.AppendFloat(b, h.Sum, 'g', -1, 64)
		b = append(b, '\n')
		b = append(b, name...)
		b = append(b, "_count "...)
		b = strconv.AppendUint(b, h.Count, 10)
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
