package transport

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Deterministic fault injection for the transport layer. A FaultInjector
// reproduces the failure modes of a production federation — connection
// resets, server errors, hangs past the deadline, truncated responses,
// added latency — on a fixed, seeded schedule, so chaos tests can assert
// bit-identical results against an equivalent fault-free run. The same
// injector works on both sides of the wire: as an http.RoundTripper on a
// RemoteClient (WithTransport) and as middleware on a ClientServer
// (SetMiddleware).

// FaultKind enumerates the injectable failure modes.
type FaultKind int

const (
	// FaultNone lets the call proceed untouched.
	FaultNone FaultKind = iota
	// FaultConnError fails the exchange with a connection-level error
	// (client side: the request never leaves; server side: the connection
	// is torn down without a response).
	FaultConnError
	// FaultHTTP500 answers with an HTTP 500 without invoking the
	// participant.
	FaultHTTP500
	// FaultTruncate lets the exchange happen but cuts the response body
	// in half, so the decode fails on a short body.
	FaultTruncate
	// FaultHang blocks until the request's context expires, modelling a
	// straggler past the deadline. The participant is never invoked.
	FaultHang
	// FaultLatency delays the call by Delay, then lets it proceed.
	FaultLatency
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultConnError:
		return "conn-error"
	case FaultHTTP500:
		return "http-500"
	case FaultTruncate:
		return "truncate"
	case FaultHang:
		return "hang"
	case FaultLatency:
		return "latency"
	default:
		return "FaultKind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Fault is one scheduled failure.
type Fault struct {
	Kind FaultKind
	// Delay applies to FaultLatency.
	Delay time.Duration
}

// Schedule decides which fault the n-th exchange (0-based, counted per
// endpoint path) suffers. Implementations must be deterministic functions
// of (endpoint, call) so chaos runs reproduce exactly; note that each
// retry attempt is its own exchange and consumes its own schedule slot.
type Schedule interface {
	Fault(endpoint string, call int) Fault
}

// Script is a fixed per-endpoint schedule: the n-th call to an endpoint
// takes the n-th fault of its slice; calls past the end succeed. The
// empty-string key is a fallback applied to endpoints without their own
// entry.
type Script map[string][]Fault

var _ Schedule = Script{}

// Fault implements Schedule.
func (s Script) Fault(endpoint string, call int) Fault {
	seq, ok := s[endpoint]
	if !ok {
		seq = s[""]
	}
	if call < len(seq) {
		return seq[call]
	}
	return Fault{}
}

// AlwaysFail cycles through its fault kinds forever on every endpoint — a
// permanently unreachable client whose every attempt fails differently.
type AlwaysFail []FaultKind

var _ Schedule = AlwaysFail{}

// Fault implements Schedule.
func (a AlwaysFail) Fault(_ string, call int) Fault {
	if len(a) == 0 {
		return Fault{}
	}
	return Fault{Kind: a[call%len(a)]}
}

// RandomFaults draws faults independently per exchange from a stream
// seeded by (Seed, endpoint, call) — stateless, so the schedule is
// deterministic regardless of call interleaving across goroutines.
type RandomFaults struct {
	Seed int64
	// P is the probability an exchange faults.
	P float64
	// Kinds is the fault mix drawn from uniformly; empty defaults to
	// {FaultConnError, FaultHTTP500, FaultHang}.
	Kinds []FaultKind
}

var _ Schedule = RandomFaults{}

// Fault implements Schedule.
func (r RandomFaults) Fault(endpoint string, call int) Fault {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", r.Seed, endpoint, call)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	if rng.Float64() >= r.P {
		return Fault{}
	}
	kinds := r.Kinds
	if len(kinds) == 0 {
		kinds = []FaultKind{FaultConnError, FaultHTTP500, FaultHang}
	}
	return Fault{Kind: kinds[rng.Intn(len(kinds))]}
}

// FaultInjector applies a Schedule to HTTP exchanges. One injector keeps
// one per-endpoint call counter, so use a separate injector per client
// (calls to different clients interleave nondeterministically under
// concurrency; calls to one client are sequenced by the round barrier).
type FaultInjector struct {
	sched Schedule
	rt    http.RoundTripper

	mu    sync.Mutex
	calls map[string]int
}

var _ http.RoundTripper = (*FaultInjector)(nil)

// NewFaultInjector builds an injector over the given schedule.
func NewFaultInjector(sched Schedule) *FaultInjector {
	return &FaultInjector{sched: sched, calls: make(map[string]int)}
}

// take consumes the next schedule slot for an endpoint.
func (f *FaultInjector) take(endpoint string) Fault {
	f.mu.Lock()
	n := f.calls[endpoint]
	f.calls[endpoint] = n + 1
	f.mu.Unlock()
	return f.sched.Fault(endpoint, n)
}

// Calls reports how many exchanges an endpoint has seen (test telemetry).
func (f *FaultInjector) Calls(endpoint string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[endpoint]
}

func (f *FaultInjector) base() http.RoundTripper {
	if f.rt != nil {
		return f.rt
	}
	return http.DefaultTransport
}

// RoundTrip implements http.RoundTripper: the client-side injection
// point, installed via WithTransport.
func (f *FaultInjector) RoundTrip(req *http.Request) (*http.Response, error) {
	fault := f.take(req.URL.Path)
	switch fault.Kind {
	case FaultConnError:
		return nil, fmt.Errorf("injected: connection reset on %s", req.URL.Path)
	case FaultHTTP500:
		return &http.Response{
			Status:     "500 injected fault",
			StatusCode: http.StatusInternalServerError,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  make(http.Header),
			Body:    io.NopCloser(bytes.NewReader([]byte("injected fault"))),
			Request: req,
		}, nil
	case FaultHang:
		<-req.Context().Done()
		return nil, fmt.Errorf("injected: hang on %s: %w", req.URL.Path, req.Context().Err())
	case FaultLatency:
		if err := sleepCtx(req.Context(), fault.Delay); err != nil {
			return nil, fmt.Errorf("injected: latency on %s: %w", req.URL.Path, err)
		}
	case FaultTruncate:
		resp, err := f.base().RoundTrip(req)
		if err != nil {
			return nil, err
		}
		full, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		cut := full[:len(full)/2]
		resp.Body = io.NopCloser(bytes.NewReader(cut))
		resp.ContentLength = int64(len(cut))
		resp.Header.Set("Content-Length", strconv.Itoa(len(cut)))
		return resp, nil
	}
	return f.base().RoundTrip(req)
}

// Middleware wraps a handler with the same fault schedule on the server
// side, for ClientServer.SetMiddleware.
func (f *FaultInjector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fault := f.take(r.URL.Path)
		switch fault.Kind {
		case FaultConnError:
			// net/http aborts the connection without writing a response.
			panic(http.ErrAbortHandler)
		case FaultHTTP500:
			http.Error(w, "injected fault", http.StatusInternalServerError)
			return
		case FaultHang:
			// Model a straggler: hold the response until the client gives
			// up. The body must be drained first — net/http starts watching
			// for client disconnect (which cancels r.Context()) only once
			// the request has been consumed.
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			return
		case FaultLatency:
			_ = sleepCtx(r.Context(), fault.Delay)
		case FaultTruncate:
			rec := &bufferResponse{header: make(http.Header)}
			next.ServeHTTP(rec, r)
			// Declare the full length but send half: the client's decoder
			// fails with an unexpected EOF, exactly like a mid-transfer
			// connection loss.
			for k, vs := range rec.header {
				w.Header()[k] = vs
			}
			w.Header().Set("Content-Length", strconv.Itoa(rec.buf.Len()))
			w.WriteHeader(rec.statusOr200())
			_, _ = w.Write(rec.buf.Bytes()[:rec.buf.Len()/2])
			return
		}
		next.ServeHTTP(w, r)
	})
}

// bufferResponse captures a handler's response for the truncate fault.
type bufferResponse struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (b *bufferResponse) Header() http.Header { return b.header }

func (b *bufferResponse) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *bufferResponse) Write(p []byte) (int, error) {
	b.WriteHeader(http.StatusOK)
	return b.buf.Write(p)
}

func (b *bufferResponse) statusOr200() int {
	if b.status == 0 {
		return http.StatusOK
	}
	return b.status
}
