package transport

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// TestStubsShareOneTransport: stubs built without WithTransport — one per
// selected client per round, under a registry server — all sit on the one
// shared transport, and WithTransport(nil) restores it.
func TestStubsShareOneTransport(t *testing.T) {
	a, b := NewRemoteClient(0, "a:1"), NewRemoteClient(1, "b:1")
	if a.httpc.Transport != http.RoundTripper(sharedTransport()) || a.httpc.Transport != b.httpc.Transport {
		t.Fatal("default stubs do not share the package transport")
	}
	c := NewRemoteClient(2, "c:1", WithTransport(NewFaultInjector(Script{})), WithTransport(nil))
	if c.httpc.Transport != a.httpc.Transport {
		t.Fatal("WithTransport(nil) did not restore the shared transport")
	}
}

// barrier releases callers in groups of n, so a round of n calls is n
// calls in flight at once however fast each is.
type barrier struct {
	mu      sync.Mutex
	n, seen int
	gate    chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{n: n, gate: make(chan struct{})} }

func (b *barrier) wait(t *testing.T) {
	b.mu.Lock()
	gate := b.gate
	if b.seen++; b.seen == b.n {
		b.seen, b.gate = 0, make(chan struct{})
		close(gate)
	}
	b.mu.Unlock()
	select {
	case <-gate:
	case <-time.After(10 * time.Second):
		t.Error("barrier: the round never had all its calls in flight at once")
	}
}

// barrierClient holds every update until the whole cohort's are in flight.
type barrierClient struct {
	*fl.SyntheticClient
	b *barrier
	t *testing.T
}

func (c barrierClient) LocalUpdate(global []float64, round int) []float64 {
	c.b.wait(c.t)
	return c.SyntheticClient.LocalUpdate(global, round)
}

// idleTracing wraps a transport, reporting on puts every time a request's
// connection is offered back to the idle pool (kept or not).
type idleTracing struct {
	next http.RoundTripper
	puts chan struct{}
}

func (rt idleTracing) RoundTrip(req *http.Request) (*http.Response, error) {
	trace := &httptrace.ClientTrace{PutIdleConn: func(error) { rt.puts <- struct{}{} }}
	return rt.next.RoundTrip(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
}

// TestStubTransportKeepsRoundConnectionsWarm is the regression test for
// stubs on http.DefaultTransport, whose two idle connections per host made
// a registry server with more than two workers close and re-dial the rest
// of its connections every round. Eight workers, cohorts of eight held at
// a barrier so all eight calls overlap: after the warm-up round has dialed
// its eight connections, later rounds dial none.
func TestStubTransportKeepsRoundConnectionsWarm(t *testing.T) {
	const workers, rounds = 8, 4
	defer parallel.SetWorkers(parallel.SetWorkers(workers))

	tr := newStubTransport()
	defer tr.CloseIdleConnections()
	var dials atomic.Int64
	dialer := &net.Dialer{}
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return dialer.DialContext(ctx, network, addr)
	}
	rt := idleTracing{next: tr, puts: make(chan struct{}, workers)}

	b := newBarrier(workers)
	fleet := NewFleet()
	for id := 0; id < workers; id++ {
		fleet.Add(barrierClient{&fl.SyntheticClient{Id: id, Seed: 97}, b, t})
	}
	addr, err := fleet.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fleet.Shutdown(context.Background()) }()

	reg := fl.NewRegistry(func(id int) fl.Participant {
		return NewRemoteClient(id, FleetClientAddr(addr, id), WithTransport(rt))
	})
	reg.RegisterRange(0, workers)
	srv := fl.NewRegistryServer(fleetTemplate(), reg, fl.Config{SelectPerRound: workers}, 98)
	for r := 0; r < rounds; r++ {
		if res := srv.RoundDetail(r); len(res.Completed) != workers {
			t.Fatalf("round %d completed %d of %d updates: %v", r, len(res.Completed), workers, res.Errs)
		}
		// A connection goes back to the pool on the transport's goroutine
		// after the call has returned; the next round must not start first.
		for i := 0; i < workers; i++ {
			select {
			case <-rt.puts:
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: connection %d never returned to the idle pool", r, i)
			}
		}
		if got := dials.Load(); got != workers {
			t.Fatalf("%d connections dialed by the end of round %d, want the warm-up round's %d and no more", got, r, workers)
		}
	}
}

// holdingTransport answers at once with its status and body and keeps the
// request body open and unread, as http.Transport does for a moment when a
// peer answers before it has read the request.
type holdingTransport struct {
	status int
	body   []byte
	held   []io.ReadCloser
}

func (h *holdingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h.held = append(h.held, req.Body)
	return &http.Response{
		StatusCode: h.status,
		Header:     make(http.Header),
		Body:       io.NopCloser(bytes.NewReader(h.body)),
		Request:    req,
	}, nil
}

// TestEarlyResponseKeepsRequestBytes: a call whose request body is still
// open when it returns must not hand its pooled buffer on. Whatever the
// pool's next users write, the bytes the transport has yet to send are the
// request; once the body is closed the buffer is free to go round again.
func TestEarlyResponseKeepsRequestBytes(t *testing.T) {
	global := fleetTemplate().ParamsVector()
	want := appendRequest(nil, wire.KindUpdateRequest, request{Global: global, Round: 2})
	for i := 0; i < 8; i++ {
		ht := &holdingTransport{status: http.StatusBadRequest, body: []byte("refused early")}
		rc := NewRemoteClient(0, "held:1", WithTransport(ht))
		if _, err := rc.TryLocalUpdate(context.Background(), global, 2); err == nil {
			t.Fatal("refused update succeeded")
		}
		for j := 0; j < 4; j++ {
			b := wire.GetBuffer()
			b.B = append(b.B, make([]byte, len(want))...)
			b.Release()
		}
		got, err := io.ReadAll(ht.held[0])
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("request bytes changed under an open body (err %v)", err)
		}
		if err := ht.held[0].Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The other thing a peer can do at this seam is answer with more than
	// it was asked for. A well-formed update past the cap TryLocalUpdate
	// derives from the global it sent is a decode error — a dropout in a
	// round — at every attempt; the stub never buffers it whole.
	oversize := AppendVersionedUpdate(nil, make([]float64, len(global)+envelopeSlack/8))
	ht := &holdingTransport{status: http.StatusOK, body: oversize}
	rc := NewRemoteClient(0, "held:1", WithTransport(ht), WithRetryPolicy(fastRetry()))
	_, err := rc.TryLocalUpdate(context.Background(), global, 2)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("oversize update response: %v, want a body-budget error", err)
	}
	if len(ht.held) != fastRetry().MaxAttempts {
		t.Fatalf("oversize update response drew %d attempts, want %d", len(ht.held), fastRetry().MaxAttempts)
	}
}

// TestSharedTransportCarriesEveryBody: the stub connections hand our own
// request bodies to the socket without a copy, by recognising them; a body
// they do not recognise — any other reader of known length, here — goes
// through the pooled copy and must reach the peer byte for byte all the
// same, as must one of ours (the two sizes straddle net/http's own 4 KiB
// write buffer, which takes the head of every body before the connection
// sees the rest).
func TestSharedTransportCarriesEveryBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ := io.ReadAll(r.Body)
		_, _ = w.Write(got)
	}))
	defer srv.Close()
	hc := &http.Client{Transport: sharedTransport()}
	for _, size := range []int{100, 300_000} {
		payload := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(payload)
		ours := newCallBody(&wire.Buffer{B: payload})
		for name, body := range map[string]io.Reader{
			"foreign reader": struct{ io.Reader }{bytes.NewReader(payload)},
			"call body":      ours.reader(),
		} {
			req, err := http.NewRequest(http.MethodPost, srv.URL, body)
			if err != nil {
				t.Fatal(err)
			}
			req.ContentLength = int64(size)
			resp, err := hc.Do(req)
			if err != nil {
				t.Fatalf("%s of %d bytes: %v", name, size, err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || !bytes.Equal(got, payload) {
				t.Errorf("%s of %d bytes: peer received %d bytes, equal=%v, err=%v", name, size, len(got), bytes.Equal(got, payload), err)
			}
		}
	}
}
