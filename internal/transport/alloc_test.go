//go:build !race

package transport

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Allocation-regression gates, excluded under the race detector, whose
// instrumentation allocates. First the compact report codec encode paths
// (ISSUE 8): a report server re-encoding into a reused buffer must not
// allocate once the buffer has grown to payload size.

func TestCodecEncodeWarmAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ranks := rng.Perm(512)
	votes := make([]bool, 512)
	for i := range ranks {
		ranks[i]++
		votes[i] = rng.Intn(2) == 1
	}

	cases := []struct {
		name   string
		encode func(dst []byte) []byte
	}{
		{"RanksDelta", func(dst []byte) []byte { return AppendRanksDelta(dst, ranks) }},
		{"VoteBitmap", func(dst []byte) []byte { return AppendVoteBitmap(dst, votes) }},
	}
	for _, c := range cases {
		buf := c.encode(nil)
		buf = c.encode(buf[:0])
		if allocs := testing.AllocsPerRun(10, func() { buf = c.encode(buf[:0]) }); allocs != 0 {
			t.Errorf("warm Append%s: %v allocs/op, want 0", c.name, allocs)
		}
	}
}

// Gates for the envelope wire path (ISSUE 12). Encoding a request — from a
// flat vector or straight from a model — or an update response into a
// buffer that has been through one payload allocates nothing.
func TestEnvelopeEncodeWarmAllocFree(t *testing.T) {
	m := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rand.New(rand.NewSource(84)))
	global := m.ParamsVector()
	cases := []struct {
		name   string
		encode func(dst []byte) []byte
	}{
		{"update request", func(dst []byte) []byte {
			return appendRequest(dst, wire.KindUpdateRequest, request{Global: global, Round: 9})
		}},
		{"vote request from a model", func(dst []byte) []byte {
			return appendRequest(dst, wire.KindVoteRequest, request{Model: m, Layer: 3, Rate: 0.5})
		}},
		{"update response", func(dst []byte) []byte { return AppendVersionedUpdate(dst, global) }},
	}
	for _, c := range cases {
		buf := c.encode(nil)
		if allocs := testing.AllocsPerRun(10, func() { buf = c.encode(buf[:0]) }); allocs != 0 {
			t.Errorf("warm %s encode: %v allocs/op, want 0", c.name, allocs)
		}
	}
}

// TestRemoteCallAllocBudget bounds the bytes one whole warm loopback update
// exchange allocates — stub, net/http both ways, fleet handler and the
// synthetic participant together — at 16 KiB, whatever the model's size. No
// vector is owed: the delta the participant returns and the delta the stub
// decodes come from the free list and go back to it, and the handler's
// global is the fleet's last verified one (DESIGN.md §8) — the test hands
// its delta back as the round drivers do. Bodies are pooled, the request's
// is the one lastRequest holds (the second phase checks that no call with
// an unchanged global encodes another) and goes to the socket from there
// (bodyConn), so what is left is net/http's per-request state (9 KiB
// measured). It is a byte budget, not a claim about net/http's call graph:
// 41 KiB while a TCP connection copied each request body through a fresh
// 32 KiB buffer, 2.4 parameter vectors before deltas were recycled, about
// eleven on the gob path before that.
func TestRemoteCallAllocBudget(t *testing.T) {
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rand.New(rand.NewSource(85)))
	global := template.ParamsVector()
	fleet := NewFleet()
	fleet.Add(&fl.SyntheticClient{Id: 0, Seed: 86})
	addr, err := fleet.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fleet.Shutdown(context.Background()) }()
	rc := NewRemoteClient(0, FleetClientAddr(addr, 0))
	exchange := func(global []float64) {
		delta, err := rc.TryLocalUpdate(context.Background(), global, 1)
		if err != nil {
			t.Fatal(err)
		}
		wire.PutFloat64s(delta)
	}
	for i := 0; i < 5; i++ {
		exchange(global)
	}
	// The collector would trim the buffer pool mid-measurement and bill the
	// budget a body buffer.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		exchange(global)
	}
	runtime.ReadMemStats(&after)
	perExchange := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per exchange of a %d-byte request", perExchange, 8*len(global))
	const budget = 16 << 10
	if perExchange >= budget {
		t.Errorf("one update exchange allocates %d bytes, budget %d", perExchange, budget)
	}

	// Phase two: the global rewritten in place with the values it holds, and
	// an equal copy of it, are the same request, so 40 calls take the one
	// body lastRequest holds and encode none.
	lastRequest.mu.Lock()
	body := lastRequest.v
	lastRequest.mu.Unlock()
	twin := append([]float64(nil), global...)
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		copy(global, twin)
		exchange([][]float64{global, twin}[i%2])
	}
	runtime.ReadMemStats(&after)
	lastRequest.mu.Lock()
	reused := body != nil && lastRequest.v == body
	lastRequest.mu.Unlock()
	if !reused {
		t.Error("40 calls with an unchanged global encoded a new request body")
	}
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per exchange with the global rewritten or copied", per)
	if per >= budget {
		t.Errorf("one update exchange with an unchanged global allocates %d bytes, budget %d", per, budget)
	}
}

// TestVectorRecycleWarmAllocFree: taking a vector from the free list and
// putting it back allocates nothing once the list is warm. A Put runs where
// a handler has already written its answer (request.release); an allocation
// there can park the handler behind the collector while its caller moves on.
func TestVectorRecycleWarmAllocFree(t *testing.T) {
	wire.PutFloat64s(wire.GetFloat64s(1 << 10))
	if allocs := testing.AllocsPerRun(100, func() { wire.PutFloat64s(wire.GetFloat64s(1 << 10)) }); allocs != 0 {
		t.Errorf("warm GetFloat64s+PutFloat64s: %v allocs/op, want 0", allocs)
	}
}
