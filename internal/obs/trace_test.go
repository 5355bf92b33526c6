package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestTraceIDDeterministicUnderSeed(t *testing.T) {
	SetTraceSeed(42)
	first := []uint64{uint64(NewTraceID()), uint64(NewSpanID()), uint64(NewTraceID())}
	SetTraceSeed(42)
	second := []uint64{uint64(NewTraceID()), uint64(NewSpanID()), uint64(NewTraceID())}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("id %d: seeded sequences diverge: %016x vs %016x", i, first[i], second[i])
		}
	}
	if first[0] == first[1] || first[1] == first[2] || first[0] == first[2] {
		t.Fatalf("seeded sequence repeats itself: %v", first)
	}
	if first[0] == 0 {
		t.Fatal("seeded sequence produced the zero (invalid) ID")
	}
}

func TestTraceIDJSONRoundTrip(t *testing.T) {
	id := TraceID(0xdeadbeef12345678)
	b, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"deadbeef12345678"` {
		t.Fatalf("marshal: got %s", b)
	}
	var back TraceID
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("round trip: got %016x want %016x", uint64(back), uint64(id))
	}
	var sp SpanID
	if err := json.Unmarshal([]byte(`"not hex"`), &sp); err == nil {
		t.Fatal("non-hex span ID parsed without error")
	}
}

func TestSpanRingAppendSnapshotDrop(t *testing.T) {
	r := NewSpanRing(16)
	for i := 0; i < 20; i++ {
		r.Append(SpanRecord{Name: "ring.test", Trace: 1, Span: SpanID(i + 1), Round: int64(i)})
	}
	if got := r.Total(); got != 20 {
		t.Fatalf("Total = %d, want 20", got)
	}
	if got := r.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}
	recs := r.Snapshot()
	if len(recs) != 16 {
		t.Fatalf("Snapshot kept %d records, want 16", len(recs))
	}
	// Oldest first: rounds 4..19 survive.
	for i, rec := range recs {
		if want := int64(i + 4); rec.Round != want {
			t.Fatalf("record %d: round %d, want %d", i, rec.Round, want)
		}
		if rec.Name != "ring.test" {
			t.Fatalf("record %d: name %q did not survive interning", i, rec.Name)
		}
	}
	r.Reset()
	if r.Total() != 0 || len(r.Snapshot()) != 0 {
		t.Fatal("Reset left records behind")
	}
}

func TestSpanRingSizeRoundsUp(t *testing.T) {
	r := NewSpanRing(17) // non power of two
	for i := 0; i < 32; i++ {
		r.Append(SpanRecord{Name: "ring.size", Span: SpanID(i + 1)})
	}
	if got := len(r.Snapshot()); got != 32 {
		t.Fatalf("ring of requested size 17 kept %d records, want 32 (next power of two)", got)
	}
}

// TestSpanRingConcurrent hammers the ring from concurrent writers while a
// reader snapshots; the seq protocol must never surface a torn record.
func TestSpanRingConcurrent(t *testing.T) {
	r := NewSpanRing(64)
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Trace and Round always match; a torn slot would mix them.
				v := int64(w*perWriter + i + 1)
				r.Append(SpanRecord{Name: "ring.race", Trace: TraceID(v), Span: SpanID(v), Round: v})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		for _, rec := range r.Snapshot() {
			if int64(rec.Trace) != rec.Round {
				t.Errorf("torn record surfaced: trace=%d round=%d", rec.Trace, rec.Round)
			}
		}
		select {
		case <-done:
			if r.Total() != writers*perWriter {
				t.Fatalf("Total = %d, want %d", r.Total(), writers*perWriter)
			}
			return
		default:
		}
	}
}

func TestHeaderInjectExtractRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	h := http.Header{}
	InjectHeaders(h, sc)
	if got := ExtractHeaders(h); got != sc {
		t.Fatalf("round trip: got %+v want %+v", got, sc)
	}
	// Invalid contexts must not inject.
	h2 := http.Header{}
	InjectHeaders(h2, SpanContext{})
	if h2.Get(TraceHeader) != "" {
		t.Fatalf("zero context injected %q", h2.Get(TraceHeader))
	}
	// Malformed values must not extract.
	for _, bad := range []string{"", "zzz", "0123456789abcdef", "0123456789abcdef:0123456789abcdef",
		"0123456789abcdef-0123456789abcde", "xxxxxxxxxxxxxxxx-0123456789abcdef"} {
		h3 := http.Header{}
		if bad != "" {
			h3.Set(TraceHeader, bad)
		}
		if got := ExtractHeaders(h3); got.Valid() {
			t.Errorf("malformed header %q extracted %+v", bad, got)
		}
	}
}

// TestZeroSpanEnd pins the zero-value contract: ending a Span that was
// never started returns 0 and observes nothing — callers with optional
// spans need no nil checks.
func TestZeroSpanEnd(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("zero_span_seconds", DurationBuckets)
	var sp Span
	sp.hist = h // even a wired histogram must not fire
	if d := sp.End(); d != 0 {
		t.Fatalf("zero span End = %v, want 0", d)
	}
	if n := r.Snapshot().Histograms["zero_span_seconds"].Count; n != 0 {
		t.Fatalf("zero span End observed into the histogram (count %d)", n)
	}
}

func TestStartChildOfLinksAndRoots(t *testing.T) {
	parent := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	child := StartChildOf(parent, "child.test", nil)
	if got := child.Context(); got.Trace != parent.Trace {
		t.Fatalf("child trace %v, want parent trace %v", got.Trace, parent.Trace)
	} else if got.Span == parent.Span || got.Span == 0 {
		t.Fatalf("child span %v must be fresh (parent %v)", got.Span, parent.Span)
	}
	root := StartChildOf(SpanContext{}, "root.test", nil)
	if !root.Context().Valid() {
		t.Fatal("child of the zero context must root a new trace")
	}
}

func TestSpanEndRecordsIntoDefaultRing(t *testing.T) {
	DefaultSpans.Reset()
	parent := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	sp := StartChildOf(parent, "record.test", nil).WithClient(7).WithRound(3).WithAttempt(2)
	if sp.End() <= 0 {
		t.Fatal("traced span End returned no duration")
	}
	recs := DefaultSpans.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("ring holds %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Name != "record.test" || rec.Trace != parent.Trace || rec.Parent != parent.Span ||
		rec.Client != 7 || rec.Round != 3 || rec.Attempt != 2 {
		t.Fatalf("recorded span mangled: %+v", rec)
	}
	DefaultSpans.Reset()
}

func TestContextPropagation(t *testing.T) {
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	ctx := ContextWithSpan(context.Background(), sc)
	if got := SpanContextFrom(ctx); got != sc {
		t.Fatalf("context round trip: got %+v want %+v", got, sc)
	}
	if got := SpanContextFrom(context.Background()); got.Valid() {
		t.Fatalf("bare context carries a span: %+v", got)
	}
	child := StartChild(ctx, "ctx.child", nil)
	if got := child.Context(); got.Trace != sc.Trace {
		t.Fatalf("StartChild ignored the context span (trace %v, want %v)", got.Trace, sc.Trace)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	recs := []SpanRecord{
		{Name: "fl.round", Trace: 0xa, Span: 1, Start: 1_000_000, Dur: 2 * time.Millisecond, Round: 5, Client: -1, Attempt: -1},
		{Name: "transport.attempt", Trace: 0xa, Span: 2, Parent: 1, Start: 1_500_000, Dur: time.Millisecond, Client: 3, Round: -1, Attempt: 1},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Trace  TraceID `json:"trace"`
				Parent SpanID  `json:"parent"`
				Client int64   `json:"client"`
				Round  int64   `json:"round"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("chrome trace has %d events, want 2", len(out.TraceEvents))
	}
	ev := out.TraceEvents[1]
	if ev.Name != "transport.attempt" || ev.Ph != "X" || ev.Dur != 1000 ||
		ev.Args.Trace != 0xa || ev.Args.Parent != 1 || ev.Args.Client != 3 {
		t.Fatalf("chrome event mangled: %+v", ev)
	}
}
