//go:build !race

package obs

import (
	"testing"
)

// Allocation-regression gates for the instrumentation primitives (ISSUE 5):
// once a metric is registered — which happens at construction time, never
// on the hot path — recording into it and tracing spans around it must not
// allocate. These gates are what lets internal/fl, internal/core and
// internal/transport carry instrumentation without moving the existing
// TrainStep/FLRound/scoped-Evaluate gates. Excluded under the race
// detector, whose instrumentation allocates.

func TestCounterWarmAllocFree(t *testing.T) {
	c := NewRegistry().Counter("c_total")
	if allocs := testing.AllocsPerRun(100, func() { c.Inc() }); allocs != 0 {
		t.Errorf("warm Counter.Inc: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Add(7) }); allocs != 0 {
		t.Errorf("warm Counter.Add: %v allocs/op, want 0", allocs)
	}
}

func TestGaugeWarmAllocFree(t *testing.T) {
	g := NewRegistry().Gauge("g")
	if allocs := testing.AllocsPerRun(100, func() { g.Set(3); g.Inc(); g.Dec() }); allocs != 0 {
		t.Errorf("warm Gauge ops: %v allocs/op, want 0", allocs)
	}
}

func TestHistogramObserveWarmAllocFree(t *testing.T) {
	h := NewRegistry().Histogram("h_seconds", DurationBuckets)
	v := 0.0
	if allocs := testing.AllocsPerRun(100, func() {
		h.Observe(v)
		v += 0.37 // walk across buckets, including overflow
	}); allocs != 0 {
		t.Errorf("warm Histogram.Observe: %v allocs/op, want 0", allocs)
	}
}

// TestSpanWarmAllocFree gates the span start/end pair — a root span, whose
// End records into the default span ring — with the default (nop) logger
// installed: the state every instrumented library runs in unless a command
// wires a handler. AllocsPerRun's warm-up call interns the name.
func TestSpanWarmAllocFree(t *testing.T) {
	SetLogger(nil) // the package default, explicit for test isolation
	h := NewRegistry().Histogram("span_seconds", DurationBuckets)
	if allocs := testing.AllocsPerRun(100, func() {
		sp := StartRoot("alloc.test", h)
		sp.End()
	}); allocs != 0 {
		t.Errorf("warm span start/end: %v allocs/op, want 0", allocs)
	}
}

// TestTraceSpanWarmAllocFree gates the traced warm path (ISSUE 10): a
// child span under a valid parent — whose End appends a record to the
// default span ring — must stay alloc-free once its name is interned.
func TestTraceSpanWarmAllocFree(t *testing.T) {
	SetLogger(nil)
	parent := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	h := NewRegistry().Histogram("traced_span_seconds", DurationBuckets)
	StartChildOf(parent, "alloc.traced", h).End() // interns the name
	if allocs := testing.AllocsPerRun(100, func() {
		sp := StartChildOf(parent, "alloc.traced", h).WithClient(1).WithRound(2).WithAttempt(3)
		sp.End()
	}); allocs != 0 {
		t.Errorf("warm traced span start/end: %v allocs/op, want 0", allocs)
	}
}

// TestSpanRingAppendWarmAllocFree gates the raw ring append, the
// primitive every traced End runs through.
func TestSpanRingAppendWarmAllocFree(t *testing.T) {
	r := NewSpanRing(64)
	rec := SpanRecord{Name: "alloc.ring", Trace: 1, Span: 2, Parent: 3,
		Start: 4, Dur: 5, Client: 6, Round: 7, Attempt: 8}
	r.Append(rec) // interns the name
	if allocs := testing.AllocsPerRun(100, func() { r.Append(rec) }); allocs != 0 {
		t.Errorf("warm SpanRing.Append: %v allocs/op, want 0", allocs)
	}
}
