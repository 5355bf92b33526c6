package transport

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// The broadcast suite (DESIGN.md §8). A stub takes its request body
// from the last one encoded when the content is the same, and a fleet
// answers a body equal to its last verified one from that one's decode. The
// tests hold both to "nothing but the content decides": the bytes a stub
// sends are a fresh encode's, and a handler's answer is a fresh handler's.

// capture keeps every request body it is sent and refuses the call, so a
// call is one attempt.
type capture struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (c *capture) RoundTrip(req *http.Request) (*http.Response, error) {
	b, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.bodies = append(c.bodies, b)
	c.mu.Unlock()
	return &http.Response{StatusCode: http.StatusBadRequest, Header: make(http.Header),
		Body: io.NopCloser(strings.NewReader("captured")), Request: req}, nil
}

func (c *capture) last() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bodies[len(c.bodies)-1]
}

// TestBroadcastSendsWhatTheVectorHoldsNow: a stub's global rewritten in
// place between two calls, and a model pruned between two report calls,
// go out as their new bytes — byte for byte a fresh appendRequest — down
// to a NaN's payload and a zero's sign.
func TestBroadcastSendsWhatTheVectorHoldsNow(t *testing.T) {
	m := fleetTemplate()
	global := m.ParamsVector()
	last := len(global) - 1
	ct := &capture{}
	rc := NewRemoteClient(0, "capture:1", WithTransport(ct))
	ctx := context.Background()

	var prev []byte
	for _, step := range []struct {
		name  string
		edit  func()
		round int
		same  bool // the request is the previous one's
	}{
		{"first", func() {}, 4, false},
		{"unchanged", func() {}, 4, true},
		{"next round", func() {}, 5, false},
		{"NaN", func() { global[0] = math.Float64frombits(0x7ff8000000000001) }, 5, false},
		{"NaN, another payload", func() { global[0] = math.Float64frombits(0x7ff8000000000002) }, 5, false},
		{"last 1", func() { global[last] = 1 }, 5, false},
		{"last +0", func() { global[last] = 0 }, 5, false},
		{"last -0", func() { global[last] = math.Copysign(0, -1) }, 5, false},
		{"last -0 again", func() { global[last] = math.Copysign(0, -1) }, 5, true},
		{"a copy", func() { global = append([]float64(nil), global...) }, 5, true},
	} {
		step.edit()
		_, _ = rc.TryLocalUpdate(ctx, global, step.round)
		got := ct.last()
		if want := appendRequest(nil, wire.KindUpdateRequest, request{Global: global, Round: step.round}); !bytes.Equal(got, want) {
			t.Fatalf("%s: the stub sent bytes that are not the request's encoding", step.name)
		}
		if bytes.Equal(got, prev) != step.same {
			t.Fatalf("%s: equal to the previous request = %v, want %v", step.name, !step.same, step.same)
		}
		prev = got
	}

	layer := m.LastConvIndex()
	reports := func(name string) []byte {
		_, _ = rc.TryRankReport(ctx, m, layer)
		if want := appendRequest(nil, wire.KindRankRequest, request{Model: m, Layer: layer}); !bytes.Equal(ct.last(), want) {
			t.Fatalf("%s: rank request is not the model's encoding", name)
		}
		rank := ct.last()
		for _, rate := range []float64{0.5, 0.25} {
			_, _ = rc.TryVoteReport(ctx, m, layer, rate)
			if want := appendRequest(nil, wire.KindVoteRequest, request{Model: m, Layer: layer, Rate: rate}); !bytes.Equal(ct.last(), want) {
				t.Fatalf("%s: vote request at %g is not the model's encoding", name, rate)
			}
		}
		return rank
	}
	before := reports("unpruned")
	m.PruneModelUnit(layer, 1)
	if after := reports("pruned"); bytes.Equal(before, after) {
		t.Fatal("pruning a unit did not change the rank request")
	}
}

// echoParticipant checks the global each update brings against the one its
// stub sent, then echoes it back as the delta: a shared global released
// while a handler still reads it (NaN under -race) fails either check.
type echoParticipant struct {
	*fl.SyntheticClient
	t       *testing.T
	globals [][]float64 // by round
}

func (p echoParticipant) LocalUpdate(global []float64, round int) []float64 {
	if round < 0 || round >= len(p.globals) || !sameBits(global, p.globals[round]) {
		p.t.Errorf("client %d, round %d: the handler's global is not the one sent", p.Id, round)
	}
	d := wire.GetFloat64s(len(global))
	copy(d, global)
	return d
}

// TestBroadcastConcurrentStubsOneFleet: 64 stubs call one fleet at once —
// all with one update, then two updates alternating, then rank and vote
// requests side by side — and every body the fleet receives is a fresh
// encode of its stub's request, every participant sees the global its stub
// sent and every stub gets it back.
func TestBroadcastConcurrentStubsOneFleet(t *testing.T) {
	const cohort = 64
	m := fleetTemplate()
	layer := m.LastConvIndex()
	a := m.ParamsVector()
	b := append([]float64(nil), a...)
	b[7] = math.Copysign(0, -1)
	globals := [][]float64{a, b}

	fleet := NewFleet()
	for id := 0; id < cohort; id++ {
		fleet.Add(echoParticipant{&fl.SyntheticClient{Id: id, Seed: 31, Units: 16}, t, globals})
	}
	// Each phase: what client id sends, and the call that sends it.
	type phase struct {
		body func(id int) []byte
		call func(rc *RemoteClient, id int) error
	}
	update := func(round int) []byte {
		return appendRequest(nil, wire.KindUpdateRequest, request{Global: globals[round], Round: round})
	}
	updates := [][]byte{update(0), update(1)}
	rank := appendRequest(nil, wire.KindRankRequest, request{Model: m, Layer: layer})
	vote := appendRequest(nil, wire.KindVoteRequest, request{Model: m, Layer: layer, Rate: 0.5})
	callUpdate := func(rc *RemoteClient, round int) error {
		d, err := rc.TryLocalUpdate(context.Background(), globals[round], round)
		if err == nil && !sameBits(d, globals[round]) {
			t.Errorf("client %d, round %d: the delta is not the global echoed", rc.ID(), round)
		}
		wire.PutFloat64s(d)
		return err
	}
	phases := []phase{
		{func(int) []byte { return updates[0] }, func(rc *RemoteClient, _ int) error { return callUpdate(rc, 0) }},
		{func(id int) []byte { return updates[id%2] }, func(rc *RemoteClient, id int) error { return callUpdate(rc, id%2) }},
		{func(id int) []byte { return [][]byte{rank, vote}[id%2] }, func(rc *RemoteClient, id int) (err error) {
			if id%2 == 0 {
				_, err = rc.TryRankReport(context.Background(), m, layer)
			} else {
				_, err = rc.TryVoteReport(context.Background(), m, layer, 0.5)
			}
			return err
		}},
	}
	var current atomic.Int32
	inner := fleet.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, err := io.ReadAll(r.Body)
		idStr, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/c/"), "/")
		id, _ := strconv.Atoi(idStr)
		if err != nil || !bytes.Equal(got, phases[current.Load()].body(id)) {
			t.Errorf("phase %d, client %d: the fleet received bytes that are not the request's encoding (%v)", current.Load(), id, err)
		}
		r.Body = io.NopCloser(bytes.NewReader(got))
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	for i, ph := range phases {
		current.Store(int32(i))
		var wg sync.WaitGroup
		for id := 0; id < cohort; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				if err := ph.call(NewRemoteClient(id, FleetClientAddr(addr, id)), id); err != nil {
					t.Errorf("phase %d, client %d: %v", i, id, err)
				}
			}(id)
		}
		wg.Wait()
	}
}

// serveBody runs one request to participant 0's endpoint path (/v1/…)
// through the fleet handler h synchronously.
func serveBody(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/c/0"+path, bytes.NewReader(body)))
	return rec
}

// TestBroadcastOneFlippedByteIsRefused: a body equal to the verified one
// but for one byte gets the 400 a fresh handler gives it — the CRC's, for
// a byte past the header — and the verified request is still served.
func TestBroadcastOneFlippedByteIsRefused(t *testing.T) {
	h, n := fuzzHandler()
	valid := appendRequest(nil, wire.KindUpdateRequest, request{Global: make([]float64, n), Round: 1})
	if rec := serveBody(h, "/v1/update", valid); rec.Code != http.StatusOK {
		t.Fatalf("valid request: HTTP %d", rec.Code)
	}
	for _, at := range []int{0, 6, len(valid) / 2, len(valid) - 5, len(valid) - 1} {
		bad := bytes.Clone(valid)
		bad[at] ^= 0x10
		got := serveBody(h, "/v1/update", bad)
		fresh, _ := fuzzHandler()
		want := serveBody(fresh, "/v1/update", bad)
		if got.Code != http.StatusBadRequest || got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("byte %d flipped: HTTP %d %q, a fresh handler HTTP %d %q",
				at, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
		}
		if at > 10 && !strings.Contains(got.Body.String(), "checksum") {
			t.Errorf("byte %d flipped: %q, want a checksum mismatch", at, got.Body.Bytes())
		}
		if rec := serveBody(h, "/v1/update", valid); rec.Code != http.StatusOK {
			t.Fatalf("valid request after byte %d: HTTP %d", at, rec.Code)
		}
	}
	// The same bytes to another endpoint are the wrong kind there.
	if rec := serveBody(h, "/v1/ranks", valid); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "kind") {
		t.Errorf("update request to /v1/ranks: HTTP %d %q, want a 400 for its kind", rec.Code, rec.Body.Bytes())
	}
}

// TestBroadcastHitStillValidates: a well-formed request of the wrong length
// or with an out-of-range layer becomes a fleet's last verified
// request — it decoded — and is refused by the template's validation every
// time it comes back.
func TestBroadcastHitStillValidates(t *testing.T) {
	f, n := fuzzFleet()
	h := f.Handler()
	for _, c := range []struct {
		path string
		body []byte
	}{
		{"/v1/update", appendRequest(nil, wire.KindUpdateRequest, request{Global: make([]float64, n-1), Round: 1})},
		{"/v1/votes", appendRequest(nil, wire.KindVoteRequest, request{Global: make([]float64, n+1), Rate: 0.5})},
		{"/v1/ranks", appendRequest(nil, wire.KindRankRequest, request{Global: make([]float64, n), Layer: 99})},
		{"/v1/votes", appendRequest(nil, wire.KindVoteRequest, request{Global: make([]float64, n), Layer: -1, Rate: 0.5})},
	} {
		for i := 0; i < 3; i++ {
			if rec := serveBody(h, c.path, c.body); rec.Code != http.StatusBadRequest {
				t.Errorf("%s, request %d: HTTP %d, want 400", c.path, i, rec.Code)
			}
			f.last.mu.Lock()
			v := f.last.v
			f.last.mu.Unlock()
			if v == nil || !bytes.Equal(v.body.B, c.body) {
				t.Fatalf("%s, request %d: not the last verified request", c.path, i)
			}
		}
	}
}

// TestBroadcastSharedGlobalReleasedOnce: the Global five requests shared
// is held by the last verified request alone once they have returned, and
// goes back to the free list once, when another request replaces it.
func TestBroadcastSharedGlobalReleasedOnce(t *testing.T) {
	f, n := fuzzFleet()
	h := f.Handler()
	request1 := appendRequest(nil, wire.KindUpdateRequest, request{Global: make([]float64, n), Round: 1})
	for i := 0; i < 5; i++ {
		if rec := serveBody(h, "/v1/update", request1); rec.Code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, rec.Code)
		}
	}
	v := f.last.v
	if refs := v.refs.Load(); refs != 1 {
		t.Fatalf("the verified request holds %d references after its handlers returned, want 1", refs)
	}
	shared := &v.req.Global[0]
	if rec := serveBody(h, "/v1/update", appendRequest(nil, wire.KindUpdateRequest, request{Global: make([]float64, n), Round: 2})); rec.Code != http.StatusOK {
		t.Fatalf("second request: HTTP %d", rec.Code)
	}
	if refs := v.refs.Load(); refs != 0 {
		t.Fatalf("the replaced request holds %d references, want 0", refs)
	}
	// Released last but for the handler's own delta: near the top of the list.
	var popped [][]float64
	seen := 0
	for i := 0; i < 8; i++ {
		p := wire.GetFloat64s(n)
		if &p[0] == shared {
			seen++
		}
		popped = append(popped, p)
	}
	for _, p := range popped {
		wire.PutFloat64s(p)
	}
	if seen != 1 {
		t.Fatalf("the shared global is on the free list %d times, want once", seen)
	}
}
