package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Distributed tracing (DESIGN.md §10). A trace is a tree of spans covering
// one causal unit of work — typically one federated round — across the
// server, its retried transport attempts, and the fleet processes serving
// them. The layer is deliberately tiny: IDs are 64-bit values from a
// seeded splitmix64 sequence (deterministic under SetTraceSeed, unique per
// process by default), parent links live in the Span value and flow
// through context.Context and two HTTP headers, and completed spans land
// in a bounded lock-free ring (SpanRing) that /trace serves as Chrome
// trace-event JSON. Recording a span on the warm path is a handful of
// atomic stores: no locks, no allocation, no change to model arithmetic
// or any existing RNG stream.

// TraceID identifies one trace (one round's tree). Zero means "no trace".
type TraceID uint64

// SpanID identifies one span within a trace. Zero means "no span".
type SpanID uint64

// String renders the ID as 16 lowercase hex digits, the wire form used in
// headers and JSON.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// MarshalJSON encodes the ID as a quoted hex string: 64-bit integers do
// not survive JSON number parsing in JavaScript-based trace viewers.
func (t TraceID) MarshalJSON() ([]byte, error) { return hexJSON(uint64(t)), nil }

// MarshalJSON encodes the ID as a quoted hex string.
func (s SpanID) MarshalJSON() ([]byte, error) { return hexJSON(uint64(s)), nil }

// UnmarshalJSON accepts the quoted hex form produced by MarshalJSON.
func (t *TraceID) UnmarshalJSON(b []byte) error {
	v, err := hexJSONParse(b)
	*t = TraceID(v)
	return err
}

// UnmarshalJSON accepts the quoted hex form produced by MarshalJSON.
func (s *SpanID) UnmarshalJSON(b []byte) error {
	v, err := hexJSONParse(b)
	*s = SpanID(v)
	return err
}

func hexJSON(v uint64) []byte {
	b := make([]byte, 0, 18)
	b = append(b, '"')
	b = append(b, fmt.Sprintf("%016x", v)...)
	b = append(b, '"')
	return b
}

func hexJSONParse(b []byte) (uint64, error) {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace/span id %q: %w", s, err)
	}
	return v, nil
}

// SpanContext is the propagated identity of a span: the trace it belongs
// to and its own ID, which children record as their parent. The zero value
// means "not traced".
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 && sc.Span != 0 }

// ---- ID generation ---------------------------------------------------

// idState is the splitmix64 sequence state. Each NextSpanID advances it by
// the splitmix64 gamma and finalizes; the sequence is fully determined by
// the seed, so SetTraceSeed makes cross-run traces reproducible.
var idState atomic.Uint64

func init() {
	if v := os.Getenv("FEDCLEANSE_TRACE_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			SetTraceSeed(n)
			return
		}
	}
	// Default: unique per process so spans recorded by a server and a
	// fleet on the same machine cannot collide.
	idState.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32)
}

// SetTraceSeed resets the ID sequence to a deterministic function of seed.
// Two processes given the same seed generate the same ID sequence — useful
// for reproducing a recorded trace, hazardous for concurrent processes
// tracing into one collector (give each a distinct seed). The environment
// variable FEDCLEANSE_TRACE_SEED seeds the process at startup.
func SetTraceSeed(seed int64) { idState.Store(uint64(seed)) }

// nextID returns the next nonzero 64-bit ID from the seeded sequence
// (splitmix64: one atomic add plus a finalizer, allocation-free).
func nextID() uint64 {
	for {
		z := idState.Add(0x9E3779B97F4A7C15)
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

// NewTraceID draws a fresh trace ID.
func NewTraceID() TraceID { return TraceID(nextID()) }

// NewSpanID draws a fresh span ID.
func NewSpanID() SpanID { return SpanID(nextID()) }

// ---- name interning --------------------------------------------------

// Span names are interned to small integers so a completed span can be
// recorded into the ring with atomic stores only — no string ever lives in
// a ring slot, which is what keeps concurrent append/snapshot race-free.
// The set of distinct span names is tiny and fixed by the instrumentation,
// so the intern table stops growing almost immediately and the warm-path
// lookup is a read-locked map hit with no allocation.
var nameIntern struct {
	mu    sync.RWMutex
	ids   map[string]uint32
	names []string // names[id-1]; id 0 means "unnamed"
}

func internName(name string) uint32 {
	if name == "" {
		return 0
	}
	nameIntern.mu.RLock()
	id, ok := nameIntern.ids[name]
	nameIntern.mu.RUnlock()
	if ok {
		return id
	}
	nameIntern.mu.Lock()
	defer nameIntern.mu.Unlock()
	if id, ok := nameIntern.ids[name]; ok {
		return id
	}
	if nameIntern.ids == nil {
		nameIntern.ids = make(map[string]uint32)
	}
	nameIntern.names = append(nameIntern.names, name)
	id = uint32(len(nameIntern.names))
	nameIntern.ids[name] = id
	return id
}

func internedName(id uint32) string {
	if id == 0 {
		return ""
	}
	nameIntern.mu.RLock()
	defer nameIntern.mu.RUnlock()
	if int(id) > len(nameIntern.names) {
		return ""
	}
	return nameIntern.names[id-1]
}

// ---- the span ring ---------------------------------------------------

// SpanRecord is one completed span as read back from a SpanRing. Client,
// Round and Attempt are -1 when the span did not carry them.
type SpanRecord struct {
	Name    string        `json:"name"`
	Trace   TraceID       `json:"trace"`
	Span    SpanID        `json:"span"`
	Parent  SpanID        `json:"parent"`
	Start   int64         `json:"start_unix_nano"`
	Dur     time.Duration `json:"dur_ns"`
	Client  int64         `json:"client"`
	Round   int64         `json:"round"`
	Attempt int64         `json:"attempt"`
}

// ringSlot holds one record entirely in atomic fields. seq is the claim
// ticket: 0 while a writer is mid-store, index+1 once the slot is
// complete. Readers validate seq before and after copying, so a torn or
// in-progress slot is skipped rather than returned — and because every
// access is atomic, concurrent append/snapshot is clean under the race
// detector.
type ringSlot struct {
	seq     atomic.Uint64
	trace   atomic.Uint64
	span    atomic.Uint64
	parent  atomic.Uint64
	name    atomic.Uint32
	start   atomic.Int64
	dur     atomic.Int64
	client  atomic.Int64
	round   atomic.Int64
	attempt atomic.Int64
}

// SpanRing is a bounded lock-free ring of completed span records. Writers
// never block and never allocate: Append claims the next slot with one
// atomic add and fills it with atomic stores. When the ring laps, the
// oldest records are overwritten (Dropped counts them). Snapshot returns
// the surviving records oldest-first, skipping any slot a concurrent
// writer holds mid-store.
//
// The seq protocol tolerates readers racing one writer per slot; if
// writers lap the ring within a single snapshot (appends outpacing the
// read by a full ring length), the affected slots fail seq validation and
// are dropped from that snapshot. Size the ring well above the append rate
// between reads — the default 8192 holds several full rounds of a 100k
// fleet's server-side spans.
type SpanRing struct {
	slots []ringSlot
	mask  uint64
	pos   atomic.Uint64
}

// NewSpanRing returns a ring with capacity rounded up to a power of two
// (minimum 16).
func NewSpanRing(size int) *SpanRing {
	n := 16
	for n < size {
		n <<= 1
	}
	return &SpanRing{slots: make([]ringSlot, n), mask: uint64(n - 1)}
}

// DefaultSpans is the process-wide ring every traced Span records into.
var DefaultSpans = NewSpanRing(8192)

// Append records one completed span; every Span.End runs through it. It is
// safe for concurrent use and performs no allocation once the name is
// interned — the zero-alloc warm-path gates in alloc_test.go cover it.
func (r *SpanRing) Append(rec SpanRecord) {
	nameID := internName(rec.Name)
	idx := r.pos.Add(1) - 1
	s := &r.slots[idx&r.mask]
	s.seq.Store(0)
	s.trace.Store(uint64(rec.Trace))
	s.span.Store(uint64(rec.Span))
	s.parent.Store(uint64(rec.Parent))
	s.name.Store(nameID)
	s.start.Store(rec.Start)
	s.dur.Store(int64(rec.Dur))
	s.client.Store(rec.Client)
	s.round.Store(rec.Round)
	s.attempt.Store(rec.Attempt)
	s.seq.Store(idx + 1)
}

// Total returns the number of spans ever appended.
func (r *SpanRing) Total() uint64 { return r.pos.Load() }

// Dropped returns how many of the appended spans have been overwritten.
func (r *SpanRing) Dropped() uint64 {
	total := r.pos.Load()
	if total <= uint64(len(r.slots)) {
		return 0
	}
	return total - uint64(len(r.slots))
}

// Reset empties the ring. Only tests should call it; it is not safe
// against concurrent appends.
func (r *SpanRing) Reset() {
	r.pos.Store(0)
	for i := range r.slots {
		r.slots[i].seq.Store(0)
	}
}

// Snapshot copies the surviving records, oldest first. Slots a concurrent
// writer holds mid-store (or has lapped since the snapshot began) fail
// their seq check and are skipped.
func (r *SpanRing) Snapshot() []SpanRecord {
	total := r.pos.Load()
	n := uint64(len(r.slots))
	if total < n {
		n = total
	}
	out := make([]SpanRecord, 0, n)
	for idx := total - n; idx < total; idx++ {
		s := &r.slots[idx&r.mask]
		if s.seq.Load() != idx+1 {
			continue
		}
		rec := SpanRecord{
			Trace:   TraceID(s.trace.Load()),
			Span:    SpanID(s.span.Load()),
			Parent:  SpanID(s.parent.Load()),
			Name:    internedName(s.name.Load()),
			Start:   s.start.Load(),
			Dur:     time.Duration(s.dur.Load()),
			Client:  s.client.Load(),
			Round:   s.round.Load(),
			Attempt: s.attempt.Load(),
		}
		if s.seq.Load() != idx+1 {
			continue
		}
		out = append(out, rec)
	}
	return out
}

// ---- context + header propagation ------------------------------------

type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sc, for StartChild and
// InjectHeaders further down the call tree. Adding to a context allocates;
// do it once per coarse unit (per round), not per span.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanContextFrom extracts the span context from ctx; the zero
// SpanContext when none is present. The lookup does not allocate.
func SpanContextFrom(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc
}

// TraceHeader carries "trace-span" (two 16-hex-digit IDs) across process
// boundaries, beside the request body.
const TraceHeader = "Fedcleanse-Trace"

// InjectHeaders stamps sc onto h. Invalid contexts leave h untouched.
func InjectHeaders(h http.Header, sc SpanContext) {
	if !sc.Valid() {
		return
	}
	h.Set(TraceHeader, sc.Trace.String()+"-"+sc.Span.String())
}

// ExtractHeaders reads the span context from h; the zero SpanContext when
// the header is absent or malformed.
func ExtractHeaders(h http.Header) SpanContext {
	v := h.Get(TraceHeader)
	if len(v) != 33 || v[16] != '-' {
		return SpanContext{}
	}
	tr, err1 := strconv.ParseUint(v[:16], 16, 64)
	sp, err2 := strconv.ParseUint(v[17:], 16, 64)
	if err1 != nil || err2 != nil {
		return SpanContext{}
	}
	return SpanContext{Trace: TraceID(tr), Span: SpanID(sp)}
}

// ---- Chrome trace-event export ---------------------------------------

// chromeEvent is one "complete" event in the Chrome trace-event format
// (the JSON about:tracing and Perfetto load). ts/dur are microseconds.
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Ts   float64         `json:"ts"`
	Dur  float64         `json:"dur"`
	Pid  int64           `json:"pid"`
	Tid  int64           `json:"tid"`
	Args chromeEventArgs `json:"args"`
}

type chromeEventArgs struct {
	Trace   TraceID `json:"trace"`
	Span    SpanID  `json:"span"`
	Parent  SpanID  `json:"parent"`
	Client  int64   `json:"client"`
	Round   int64   `json:"round"`
	Attempt int64   `json:"attempt"`
}

// WriteChromeTrace writes recs as a Chrome trace-event JSON object
// ({"traceEvents": [...]}), loadable in about:tracing or Perfetto. Rows
// group by trace: pid 1, tid = the trace ID's low 31 bits, so each round's
// tree renders as one track.
func WriteChromeTrace(w io.Writer, recs []SpanRecord) error {
	evs := make([]chromeEvent, 0, len(recs))
	for _, rec := range recs {
		evs = append(evs, chromeEvent{
			Name: rec.Name,
			Cat:  "span",
			Ph:   "X",
			Ts:   float64(rec.Start) / 1e3,
			Dur:  float64(rec.Dur.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  int64(uint64(rec.Trace) & 0x7fffffff),
			Args: chromeEventArgs{
				Trace:   rec.Trace,
				Span:    rec.Span,
				Parent:  rec.Parent,
				Client:  rec.Client,
				Round:   rec.Round,
				Attempt: rec.Attempt,
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: evs})
}
