package transport

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// fleetTemplate is a small real model for fleet rounds — synthetic
// deltas are sized to whatever parameter vector arrives, so any
// architecture works.
func fleetTemplate() *nn.Sequential {
	return nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rand.New(rand.NewSource(90)))
}

// startFleet serves count synthetic clients on a loopback fleet and
// returns the bound address plus a shutdown func.
func startFleet(t *testing.T, count int, seed int64) (*Fleet, string, func()) {
	t.Helper()
	f := NewFleet()
	for id := 0; id < count; id++ {
		f.Add(&fl.SyntheticClient{Id: id, Seed: seed})
	}
	addr, err := f.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return f, addr, func() { _ = f.Shutdown(context.Background()) }
}

// TestFleetRoundsMatchInProcess is the fleet's bit-identity gate: a
// registry-backed streaming federation of 50 clients driven over one
// loopback listener must produce the same parameters and telemetry as the
// same federation run fully in process — the wire adds failure modes, not
// arithmetic.
func TestFleetRoundsMatchInProcess(t *testing.T) {
	const population, cohort, rounds = 50, 12, 3
	cfg := fl.Config{Rounds: rounds, SelectPerRound: cohort, Quorum: 0.5, Streaming: true}

	run := func(factory fl.ClientFactory) ([]float64, []fl.RoundResult) {
		reg := fl.NewRegistry(factory)
		reg.RegisterRange(0, population)
		srv := fl.NewRegistryServer(fleetTemplate(), reg, cfg, 91)
		var results []fl.RoundResult
		for r := 0; r < rounds; r++ {
			results = append(results, srv.RoundDetail(r))
		}
		return srv.Model.ParamsVector(), results
	}

	refParams, refRounds := run(func(id int) fl.Participant {
		return &fl.SyntheticClient{Id: id, Seed: 92}
	})
	for _, res := range refRounds {
		if !res.Applied || len(res.Completed) != cohort {
			t.Fatalf("in-process reference round off: %+v", res)
		}
	}

	_, addr, shutdown := startFleet(t, population, 92)
	defer shutdown()
	for _, w := range []int{1, 8} {
		prev := parallel.SetWorkers(w)
		params, results := run(func(id int) fl.Participant {
			return NewRemoteClient(id, FleetClientAddr(addr, id))
		})
		parallel.SetWorkers(prev)
		assertSameParams(t, "fleet", params, refParams)
		for r, res := range results {
			want := refRounds[r]
			if !sameIntSlices(res.Selected, want.Selected) ||
				!sameIntSlices(res.Completed, want.Completed) ||
				res.Applied != want.Applied {
				t.Fatalf("workers=%d round %d: %+v, want %+v", w, r, res, want)
			}
		}
	}
}

// TestFleetRoundTripRecyclesDeltas is the ownership gate over the wire
// (DESIGN.md §19): with handler and stubs in one process, every delta — the
// one the participant returns, the one the stub decodes — and every decoded
// global is drawn from the one free list the handler, the batch round and
// the fold's last shard give back to. Batch and streaming rounds, over
// shards, windows and worker counts, must equal the in-process batch run bit
// for bit and hold no more than the window in flight; under the race
// detector a vector released while still readable is a report and a NaN.
func TestFleetRoundTripRecyclesDeltas(t *testing.T) {
	const population, cohort, rounds = 80, 16, 5
	run := func(workers int, cfg fl.Config, factory fl.ClientFactory) ([]float64, int) {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		reg := fl.NewRegistry(factory)
		reg.RegisterRange(0, population)
		cfg.SelectPerRound = cohort
		srv := fl.NewRegistryServer(fleetTemplate(), reg, cfg, 191)
		peak := 0
		for r := 0; r < rounds; r++ {
			res := srv.RoundDetail(r)
			if !res.Applied || len(res.Completed) != cohort {
				t.Fatalf("round %d: %+v", r, res)
			}
			peak = max(peak, res.PeakInFlight)
		}
		return srv.Model.ParamsVector(), peak
	}
	want, _ := run(1, fl.Config{}, func(id int) fl.Participant {
		return &fl.SyntheticClient{Id: id, Seed: 192}
	})

	_, addr, shutdown := startFleet(t, population, 192)
	defer shutdown()
	remote := func(id int) fl.Participant { return NewRemoteClient(id, FleetClientAddr(addr, id)) }
	for _, workers := range []int{1, 4} {
		got, _ := run(workers, fl.Config{}, remote)
		assertSameParams(t, "batch over the fleet", got, want)
		for _, shards := range []int{1, 2, 4} {
			for _, window := range []int{2, 8} {
				got, peak := run(workers, fl.Config{Streaming: true, Shards: shards, StreamWindow: window}, remote)
				if peak < 1 || peak > window {
					t.Fatalf("workers=%d shards=%d window=%d: PeakInFlight=%d", workers, shards, window, peak)
				}
				assertSameParams(t, "streaming over the fleet", got, want)
			}
		}
	}
}

// TestResponseCompletesAfterHandlerReturns: writeBody holds the tail of
// every response back, so a caller cannot have its update — 147 KB, which
// net/http would otherwise hand to the socket whole — before the handler
// chain has returned; whatever a handler or a middleware around it does on
// the way out is settled by the time the round moves on.
func TestResponseCompletesAfterHandlerReturns(t *testing.T) {
	fleet := NewFleet()
	fleet.Add(&fl.SyntheticClient{Id: 0, Seed: 193})
	var returned atomic.Bool
	inner := fleet.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		returned.Store(false)
		inner.ServeHTTP(w, r)
		time.Sleep(20 * time.Millisecond) // a slow way out
		returned.Store(true)
	}))
	defer srv.Close()
	rc := NewRemoteClient(0, FleetClientAddr(strings.TrimPrefix(srv.URL, "http://"), 0))
	global := fleetTemplate().ParamsVector()
	for round := 0; round < 3; round++ {
		d, err := rc.TryLocalUpdate(context.Background(), global, round)
		if err != nil || len(d) != len(global) {
			t.Fatalf("round %d: %d values, err %v", round, len(d), err)
		}
		if !returned.Load() {
			t.Fatalf("round %d: the update arrived before its handler had returned", round)
		}
	}
}

// TestFleetServesManyClientsOneListener: every one of 200 clients answers
// at its own path prefix on the same port, and the fedload counters move.
func TestFleetServesManyClientsOneListener(t *testing.T) {
	const count = 200
	_, addr, shutdown := startFleet(t, count, 93)
	defer shutdown()
	updatesBefore := obs.M.FedloadUpdates.Value()
	bytesInBefore := obs.M.FedloadBytesIn.Value()
	bytesOutBefore := obs.M.FedloadBytesOut.Value()
	global := make([]float64, 32)
	for id := 0; id < count; id++ {
		rc := NewRemoteClient(id, FleetClientAddr(addr, id))
		d, err := rc.TryLocalUpdate(context.Background(), global, 0)
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
		if len(d) != len(global) {
			t.Fatalf("client %d: delta length %d, want %d", id, len(d), len(global))
		}
	}
	if got := obs.M.FedloadUpdates.Value() - updatesBefore; got != count {
		t.Fatalf("fedload_updates_total moved by %d, want %d", got, count)
	}
	if obs.M.FedloadBytesIn.Value() == bytesInBefore || obs.M.FedloadBytesOut.Value() == bytesOutBefore {
		t.Fatal("fleet byte counters did not move")
	}
}

// panicker explodes on every update.
type panicker struct{ id int }

func (p *panicker) ID() int                              { return p.id }
func (p *panicker) LocalUpdate([]float64, int) []float64 { panic("synthetic participant bug") }

// TestFleetRecoversParticipantPanic: one faulty participant yields HTTP
// 500s and a panic-counter tick; its neighbours keep serving.
func TestFleetRecoversParticipantPanic(t *testing.T) {
	f := NewFleet()
	f.Add(&fl.SyntheticClient{Id: 0, Seed: 94}, &panicker{id: 1}, &fl.SyntheticClient{Id: 2, Seed: 94})
	addr, err := f.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())

	before := obs.M.FedloadHandlerPanics.Value()
	global := make([]float64, 8)
	rc := NewRemoteClient(1, FleetClientAddr(addr, 1),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
	if _, err := rc.TryLocalUpdate(context.Background(), global, 0); err == nil {
		t.Fatal("panicking participant answered successfully")
	}
	if got := obs.M.FedloadHandlerPanics.Value() - before; got != 1 {
		t.Fatalf("fedload_handler_panics_total moved by %d, want 1", got)
	}
	for _, id := range []int{0, 2} {
		rc := NewRemoteClient(id, FleetClientAddr(addr, id))
		if _, err := rc.TryLocalUpdate(context.Background(), global, 0); err != nil {
			t.Fatalf("client %d failed after neighbour panic: %v", id, err)
		}
	}
}

// TestFleetRejectsUnknownPaths: unknown clients and unknown endpoints are
// 404s, which RemoteClient treats as permanent (no retry storm).
func TestFleetRejectsUnknownPaths(t *testing.T) {
	_, addr, shutdown := startFleet(t, 1, 95)
	defer shutdown()
	rc := NewRemoteClient(7, FleetClientAddr(addr, 7),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 3}))
	attempts := obs.M.TransportAttempts.Value()
	if _, err := rc.TryLocalUpdate(context.Background(), make([]float64, 4), 0); err == nil {
		t.Fatal("unknown client id answered")
	}
	if got := obs.M.TransportAttempts.Value() - attempts; got != 1 {
		t.Fatalf("404 retried: %d attempts, want 1", got)
	}
	// Unknown endpoints under a known client are 404s too.
	rc0 := NewRemoteClient(0, FleetClientAddr(addr, 0),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
	req, err := http.NewRequest(http.MethodPost, rc0.baseURL+"/v1/nonsense", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown endpoint: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestFleetDuplicateAddPanics: registering two participants under one ID
// is a programming error.
func TestFleetDuplicateAddPanics(t *testing.T) {
	f := NewFleet()
	f.Add(&fl.SyntheticClient{Id: 3})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	f.Add(&fl.SyntheticClient{Id: 3})
}

// TestFleetServesReports: the fleet's report endpoints answer with the
// synthetic clients' canned reports through completely unmodified
// RemoteClients, a rank report of 64 units in at most 67 bytes (a byte a
// rank, the first at most two, plus tag and length).
func TestFleetServesReports(t *testing.T) {
	_, addr, shutdown := startFleet(t, 3, 77)
	defer shutdown()
	tmpl := fleetTemplate()
	syn := &fl.SyntheticClient{Id: 1, Seed: 77}

	rc := NewRemoteClient(1, FleetClientAddr(addr, 1))
	recvBefore := obs.M.TransportReportBytesRecv.Value()
	ranks, err := rc.TryRankReport(context.Background(), tmpl, 0)
	if err != nil {
		t.Fatalf("TryRankReport: %v", err)
	}
	if recvRank := obs.M.TransportReportBytesRecv.Value() - recvBefore; recvRank == 0 || recvRank > 67 {
		t.Fatalf("rank payload %d bytes, want (0,67]", recvRank)
	}
	wantRanks := syn.RankReport(nil, 0)
	if len(ranks) != len(wantRanks) {
		t.Fatalf("rank report length %d, want %d", len(ranks), len(wantRanks))
	}
	for i := range ranks {
		if ranks[i] != wantRanks[i] {
			t.Fatalf("rank[%d] = %d, want %d", i, ranks[i], wantRanks[i])
		}
	}
	votes, err := rc.TryVoteReport(context.Background(), tmpl, 0, 0.5)
	if err != nil {
		t.Fatalf("TryVoteReport: %v", err)
	}
	wantVotes := syn.VoteReport(nil, 0, 0.5)
	for i := range votes {
		if votes[i] != wantVotes[i] {
			t.Fatalf("vote[%d] = %v, want %v", i, votes[i], wantVotes[i])
		}
	}
}

// TestClientServerReportsBorrowOneWorkingModel: however many report and
// update calls a ClientServer serves, interleaved, they run on one working
// model — the participant's, borrowed from its own template's free list —
// and the slot's template lends none, nor builds a list to lend from. Each
// report is byte for byte the one a fresh clone holding the request's
// parameters gives, at both report precisions, and each update the
// participant's in-process one, whatever the working model held before.
func TestClientServerReportsBorrowOneWorkingModel(t *testing.T) {
	train, _ := dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 4, TestPerClass: 1, Seed: 80})
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rand.New(rand.NewSource(81)))
	client := fl.NewClient(0, train, template, fl.Config{Rounds: 1, LocalEpochs: 1, BatchSize: 20, LR: 0.05}, 82)
	cs := NewClientServer(client, template)
	li := template.LastConvIndex()
	rng := rand.New(rand.NewSource(83))

	check := func(path string, body, want []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		cs.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", path, rec.Code)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: response differs from the in-process one", path)
		}
	}
	for i := 0; i < 3; i++ {
		// m is what each request used to be answered on: a fresh clone of
		// the template holding the requested parameters.
		m := template.Clone()
		delta := make([]float64, m.NumParams())
		for j := range delta {
			delta[j] = 0.05 * rng.NormFloat64()
		}
		m.AddDeltaVector(1, delta)
		global := m.ParamsVector()
		for _, quant := range []metrics.ReportQuant{metrics.ReportFloat64, metrics.ReportInt8} {
			client.SetReportQuant(quant)
			check("/v1/ranks", appendRequest(nil, wire.KindRankRequest, request{Model: m, Layer: li}),
				AppendRanksDelta(nil, client.RankReport(m, li)))
			check("/v1/update", appendRequest(nil, wire.KindUpdateRequest, request{Global: global, Round: i}),
				AppendVersionedUpdate(nil, client.LocalUpdate(global, i)))
			check("/v1/votes", appendRequest(nil, wire.KindVoteRequest, request{Model: m, Layer: li, Rate: 0.3}),
				AppendVoteBitmap(nil, client.VoteReport(m, li, 0.3)))
		}
	}
	if made := template.Replicas().Made(); made != 1 {
		t.Fatalf("12 report and 6 update calls, served and in process, made %d working models, want 1", made)
	}
	// Sequential.replicas is created by the first Replicas call.
	if !reflect.ValueOf(cs.slot.template).Elem().FieldByName("replicas").IsNil() {
		t.Fatal("the slot's template built a free list of working models")
	}
}

// wrongLength answers every update with a delta of n values — nil when n
// is negative — instead of one as long as the global vector.
type wrongLength struct {
	*fl.SyntheticClient
	n int
}

func (c wrongLength) LocalUpdate([]float64, int) []float64 {
	if c.n < 0 {
		return nil
	}
	return make([]float64, c.n)
}

// TestMalformedUpdatesAreDropouts: a participant that answers with a
// well-formed update of the wrong length, or with none, is a recorded
// dropout — not a panic inside the aggregator — in batch and streaming
// rounds, in process and behind RemoteClients over a loopback fleet, and
// the round applies on the survivors exactly as if DropPolicy had excluded
// the two.
func TestMalformedUpdatesAreDropouts(t *testing.T) {
	const short, none = 2, 4
	parts := func() []fl.Participant {
		parts := make([]fl.Participant, 6)
		for id := range parts {
			parts[id] = &fl.SyntheticClient{Id: id, Seed: 94}
		}
		return parts
	}
	bad := parts()
	bad[short] = wrongLength{bad[short].(*fl.SyntheticClient), 3}
	bad[none] = wrongLength{bad[none].(*fl.SyntheticClient), -1}

	fleet := NewFleet()
	fleet.Add(bad...)
	addr, err := fleet.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fleet.Shutdown(context.Background()) }()
	remote := make([]fl.Participant, len(bad))
	for id := range remote {
		remote[id] = NewRemoteClient(id, FleetClientAddr(addr, id))
	}

	for _, streaming := range []bool{false, true} {
		cfg := fl.Config{Quorum: 0.5, Streaming: streaming, Shards: 4}
		ref := fl.NewServer(fleetTemplate(), parts(), cfg, 95)
		ref.Drop = dropClients{short: true, none: true}
		if res := ref.RoundDetail(0); !res.Applied {
			t.Fatalf("streaming=%v: reference round not applied: %+v", streaming, res)
		}
		for name, cohort := range map[string][]fl.Participant{"in-process": bad, "wire": remote} {
			srv := fl.NewServer(fleetTemplate(), cohort, cfg, 95)
			res := srv.RoundDetail(0)
			if !res.Applied || !sameIntSlices(res.Dropped, []int{short, none}) {
				t.Fatalf("streaming=%v %s: %+v, want clients %d and %d dropped and the round applied",
					streaming, name, res, short, none)
			}
			for _, id := range res.Dropped {
				var le *fl.UpdateLengthError
				if !errors.As(res.Errs[id], &le) {
					t.Errorf("streaming=%v %s: client %d dropped with %v, want an UpdateLengthError",
						streaming, name, id, res.Errs[id])
				}
			}
			assertSameParams(t, name, srv.Model.ParamsVector(), ref.Model.ParamsVector())
		}
	}
}

// panicsOnce is a synthetic client whose first update and first rank report
// panic.
type panicsOnce struct {
	*fl.SyntheticClient
	updated, ranked atomic.Bool
}

func (p *panicsOnce) LocalUpdate(global []float64, round int) []float64 {
	if !p.updated.Swap(true) {
		panic("first update")
	}
	return p.SyntheticClient.LocalUpdate(global, round)
}

func (p *panicsOnce) RankReport(m *nn.Sequential, layer int) []int {
	if !p.ranked.Swap(true) {
		panic("first report")
	}
	return p.SyntheticClient.RankReport(m, layer)
}

// TestFleetSlotSurvivesParticipantPanic: a participant panic is a 500 that
// leaves its slot serving — the next request to the same client, on the
// update and on the report path, is answered within the deadline instead of
// waiting forever for the slot's mutex.
func TestFleetSlotSurvivesParticipantPanic(t *testing.T) {
	f := NewFleet()
	f.Add(&panicsOnce{SyntheticClient: &fl.SyntheticClient{Id: 0, Seed: 96}})
	addr, err := f.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = f.Shutdown(ctx)
	}()
	rc := NewRemoteClient(0, FleetClientAddr(addr, 0), WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
	tmpl := fleetTemplate()
	for _, c := range []struct {
		name string
		call func(context.Context) error
	}{
		{"update", func(ctx context.Context) error {
			_, err := rc.TryLocalUpdate(ctx, tmpl.ParamsVector(), 0)
			return err
		}},
		{"ranks", func(ctx context.Context) error {
			_, err := rc.TryRankReport(ctx, tmpl, 0)
			return err
		}},
	} {
		if err := c.call(context.Background()); err == nil {
			t.Fatalf("%s: the panicking call answered successfully", c.name)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := c.call(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%s: the call after a panic failed: %v", c.name, err)
		}
	}
}
