package obs

import (
	"context"
	"log/slog"
	"time"
)

// Span traces one coarse stage of work — a federated round, a defense
// pipeline phase, a remote call. It is a plain value: starting one stamps
// the wall clock, End observes the elapsed seconds into the span's latency
// histogram and, when the logger handles debug, emits paired start/end
// events. Every span carries a SpanContext (DESIGN.md §16): StartRoot
// opens a trace, StartChild/StartChildOf link into one via parent IDs. A
// span may tag the client/round/attempt it covers (WithClient, WithRound,
// WithAttempt), and on End records itself into DefaultSpans, the
// process-wide ring served at /trace. The warm start/end pair allocates
// nothing (the span lives on the caller's stack and the debug events are
// guarded by Enabled), so spans are safe around paths gated by make
// alloc-test.
type Span struct {
	name    string
	hist    *Histogram
	start   time.Time
	sc      SpanContext
	parent  SpanID
	client  int64
	round   int64
	attempt int64
}

// startSpan stamps the clock for a span under sc. hist receives the
// duration in seconds at End and may be nil for spans that only exist for
// the trace.
func startSpan(name string, hist *Histogram, sc SpanContext, parent SpanID) Span {
	if Enabled(slog.LevelDebug) {
		L().Debug("span start", "span", name)
	}
	return Span{name: name, hist: hist, start: time.Now(), sc: sc, parent: parent,
		client: -1, round: -1, attempt: -1}
}

// StartRoot begins a span that roots a new trace: fresh TraceID, fresh
// SpanID, no parent. Use it at the top of a causal unit (one federated
// round, one defense pipeline run).
func StartRoot(name string, hist *Histogram) Span {
	return startSpan(name, hist, SpanContext{Trace: NewTraceID(), Span: NewSpanID()}, 0)
}

// StartChild begins a span under the span context carried by ctx.
// When ctx carries none, the span roots a new trace instead, so call trees
// that are sometimes entered without a propagated parent still trace.
func StartChild(ctx context.Context, name string, hist *Histogram) Span {
	return StartChildOf(SpanContextFrom(ctx), name, hist)
}

// StartChildOf begins a span under an explicit parent context; a zero
// parent roots a new trace.
func StartChildOf(parent SpanContext, name string, hist *Histogram) Span {
	if !parent.Valid() {
		return StartRoot(name, hist)
	}
	return startSpan(name, hist, SpanContext{Trace: parent.Trace, Span: NewSpanID()}, parent.Span)
}

// Context returns the span's propagation context (zero for the zero
// Span). Hand it to ContextWithSpan or InjectHeaders so remote work joins
// this span's tree.
func (s Span) Context() SpanContext { return s.sc }

// WithClient tags the span with the client ID it covers.
func (s Span) WithClient(id int) Span { s.client = int64(id); return s }

// WithRound tags the span with the federated round it covers.
func (s Span) WithRound(t int) Span { s.round = int64(t); return s }

// WithAttempt tags the span with a transport attempt ordinal.
func (s Span) WithAttempt(n int) Span { s.attempt = int64(n); return s }

// End closes the span: it observes the elapsed duration into the
// histogram, records the span into DefaultSpans, and returns the
// duration. End on the zero Span returns 0 and records nothing — neither
// the histogram nor the ring sees it — so instrumented code never needs
// nil checks around conditionally started spans.
func (s Span) End() time.Duration {
	if s.start.IsZero() {
		return 0
	}
	d := time.Since(s.start)
	if s.hist != nil {
		s.hist.Observe(d.Seconds())
	}
	DefaultSpans.Append(SpanRecord{Name: s.name, Trace: s.sc.Trace, Span: s.sc.Span, Parent: s.parent,
		Start: s.start.UnixNano(), Dur: d, Client: s.client, Round: s.round, Attempt: s.attempt})
	M.TraceSpans.Inc()
	if s.name != "" && Enabled(slog.LevelDebug) {
		L().Debug("span end", "span", s.name, "dur", d)
	}
	return d
}
