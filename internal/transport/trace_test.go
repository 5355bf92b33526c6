package transport

import (
	"context"
	"testing"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/obs"
)

// startTraceFleet serves one synthetic client and returns a stub for it.
func startTraceFleet(t *testing.T, opts ...RemoteOption) (*RemoteClient, func()) {
	t.Helper()
	f := NewFleet()
	f.Add(&fl.SyntheticClient{Id: 0, Seed: 7, Units: 4})
	addr, err := f.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc := NewRemoteClient(0, FleetClientAddr(addr, 0), opts...)
	return rc, func() { _ = f.Shutdown(context.Background()) }
}

// spansNamed waits for (at least) want ring records named name — the
// server handler's span ends concurrently with the client reading the
// response, so the record can trail the call by a scheduler beat.
func spansNamed(t *testing.T, name string, want int) []obs.SpanRecord {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got []obs.SpanRecord
		for _, rec := range obs.DefaultSpans.Snapshot() {
			if rec.Name == name {
				got = append(got, rec)
			}
		}
		if len(got) >= want {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring never recorded %d %q spans (have %d)", want, name, len(got))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTraceHeaderVersionedUpdatesPropagation drives one update call under
// a traced context. The trace context rides an HTTP header, beside the
// envelope body, and must land the server handler's span in the caller's
// trace, parented to the wire attempt that carried it.
func TestTraceHeaderVersionedUpdatesPropagation(t *testing.T) {
	obs.DefaultSpans.Reset()
	rc, shutdown := startTraceFleet(t)
	defer shutdown()
	root := obs.StartRoot("test.root", nil)
	ctx := obs.ContextWithSpan(context.Background(), root.Context())
	if _, err := rc.TryLocalUpdate(ctx, []float64{1, 2, 3, 4}, 5); err != nil {
		t.Fatal(err)
	}
	trace := root.Context().Trace
	call := spansNamed(t, "transport.call", 1)[0]
	if call.Trace != trace || call.Parent != root.Context().Span {
		t.Fatalf("call span not a child of the root: %+v", call)
	}
	attempt := spansNamed(t, "transport.attempt", 1)[0]
	if attempt.Trace != trace || attempt.Parent != call.Span || attempt.Attempt != 1 {
		t.Fatalf("attempt span not a child of the call: %+v", attempt)
	}
	served := spansNamed(t, "fedload.update", 1)[0]
	if served.Trace != trace {
		t.Fatalf("server span landed in trace %s, want %s", served.Trace, trace)
	}
	if served.Parent != attempt.Span {
		t.Fatalf("server span parent %s, want the attempt %s", served.Parent, attempt.Span)
	}
	if served.Client != 0 || served.Round != 5 {
		t.Fatalf("server span lost its labels: %+v", served)
	}
}

// TestTraceFaultRetryKeepsTraceNewSpanPerAttempt injects one connection
// error: the retried call must stay in the same trace while each wire
// attempt gets a fresh span ID, and the server's span must hang off the
// attempt that actually reached it.
func TestTraceFaultRetryKeepsTraceNewSpanPerAttempt(t *testing.T) {
	obs.DefaultSpans.Reset()
	inj := NewFaultInjector(Script{"/c/0/v1/update": {{Kind: FaultConnError}}})
	rc, shutdown := startTraceFleet(t, WithRetryPolicy(chaosRetry()), WithTransport(inj))
	defer shutdown()
	root := obs.StartRoot("test.root", nil)
	ctx := obs.ContextWithSpan(context.Background(), root.Context())
	if _, err := rc.TryLocalUpdate(ctx, []float64{1, 2, 3, 4}, 1); err != nil {
		t.Fatal(err)
	}
	attempts := spansNamed(t, "transport.attempt", 2)
	if len(attempts) != 2 {
		t.Fatalf("got %d attempt spans, want 2", len(attempts))
	}
	if attempts[0].Trace != root.Context().Trace || attempts[1].Trace != attempts[0].Trace {
		t.Fatalf("attempts left the trace: %+v", attempts)
	}
	if attempts[0].Span == attempts[1].Span {
		t.Fatalf("retry reused the attempt span ID %s", attempts[0].Span)
	}
	if attempts[0].Attempt != 1 || attempts[1].Attempt != 2 {
		t.Fatalf("attempt numbering off: %d then %d", attempts[0].Attempt, attempts[1].Attempt)
	}
	if attempts[0].Parent != attempts[1].Parent {
		t.Fatalf("attempts have different parents: %+v", attempts)
	}
	served := spansNamed(t, "fedload.update", 1)
	if len(served) != 1 {
		t.Fatalf("server recorded %d update spans, want 1 (the surviving attempt)", len(served))
	}
	if served[0].Parent != attempts[1].Span {
		t.Fatalf("server span parent %s, want the second attempt %s", served[0].Parent, attempts[1].Span)
	}
}
