package transport

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Fleet hosts many federated participants behind ONE listener, which is
// what makes tens of thousands of wire-attached clients practical in a
// load test: one OS process, one port, one http.Server, however many
// participants. Each participant answers at the path prefix /c/<id>, so
// the stub address for client 42 on a fleet bound to host:port is
//
//	host:port/c/42
//
// — exactly the addr NewRemoteClient expects (FleetClientAddr builds it),
// meaning the aggregation server drives a fleet through completely
// unmodified RemoteClients.
//
// The fleet serves the full protocol: the update endpoint
// (POST /c/<id>/v1/update) plus the defense's report endpoints
// (/v1/ranks, /v1/votes, /v1/accuracy) for participants that implement
// the reporting interfaces — fl.SyntheticClient answers them with canned
// deterministic reports, so a load run exercises the report wire path
// end to end. Report responses use the compact codecs of codec.go at the
// fleet's configured quantization (SetReportQuant). Every request is
// instrumented into the fedload_* metrics, and a participant panic is
// recovered to an HTTP 500 plus a fedload_handler_panics_total tick
// instead of taking down the other tens of thousands of clients sharing
// the process.
type Fleet struct {
	mu        sync.RWMutex
	slots     map[int]*fleetSlot
	maxBody   int64
	quant     metrics.ReportQuant
	versioned bool

	life lifecycle
}

// fleetSlot pairs a participant with the mutex serializing calls into it,
// matching ClientServer's one-call-at-a-time participant contract.
// (fl.SyntheticClient happens to be concurrency-safe, but the fleet does
// not assume that of an arbitrary Participant.)
type fleetSlot struct {
	mu   sync.Mutex
	part fl.Participant
}

// NewFleet builds an empty fleet.
func NewFleet() *Fleet {
	return &Fleet{
		slots: make(map[int]*fleetSlot),
		// No template bounds the request size here (the fleet is
		// architecture-agnostic), so cap bodies at a size no legitimate
		// parameter vector in this codebase approaches.
		maxBody:   64 << 20,
		versioned: true,
	}
}

// SetMaxBody overrides the request-body cap (bytes).
func (f *Fleet) SetMaxBody(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.maxBody = n
}

// SetReportQuant selects the precision of the fleet's report responses
// (see ClientServer.SetReportQuant).
func (f *Fleet) SetReportQuant(q metrics.ReportQuant) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.quant = q
}

// SetVersionedUpdates selects between the versioned envelope encoding for
// the fleet's update responses (the default) and legacy gob (see
// ClientServer.SetVersionedUpdates).
func (f *Fleet) SetVersionedUpdates(v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.versioned = v
}

// Add registers participants under their IDs. A duplicate ID is a
// programming error and panics.
func (f *Fleet) Add(parts ...fl.Participant) {
	f.mu.Lock()
	for _, p := range parts {
		id := p.ID()
		if _, dup := f.slots[id]; dup {
			f.mu.Unlock()
			panic(fmt.Sprintf("transport: Fleet.Add: duplicate client %d", id))
		}
		f.slots[id] = &fleetSlot{part: p}
	}
	n := len(f.slots)
	f.mu.Unlock()
	obs.M.FedloadClients.Set(int64(n))
}

// Len reports the number of hosted participants.
func (f *Fleet) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.slots)
}

// FleetClientAddr returns the RemoteClient addr for client id on a fleet
// bound to addr (host:port).
func FleetClientAddr(addr string, id int) string {
	return addr + "/c/" + strconv.Itoa(id)
}

// Handler returns the fleet's protocol handler, wrapped in the
// panic-recovering middleware.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/c/", f.route)
	return recoverToError(mux)
}

// Serve starts listening on addr ("127.0.0.1:0" for an ephemeral port)
// and serves until Shutdown, returning the bound address. Serving runs on
// a background goroutine; the terminal error arrives on Err.
func (f *Fleet) Serve(addr string) (string, error) {
	return f.life.serve(addr, f.Handler())
}

// Err returns the channel delivering the terminal serve error (nil after
// a clean Shutdown); nil before Serve.
func (f *Fleet) Err() <-chan error { return f.life.errChan() }

// Shutdown stops the fleet gracefully.
func (f *Fleet) Shutdown(ctx context.Context) error {
	return f.life.shutdown(ctx)
}

// route dispatches /c/<id>/v1/* to the participant's slot.
func (f *Fleet) route(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/c/")
	idStr, tail, ok := strings.Cut(rest, "/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	f.mu.RLock()
	slot := f.slots[id]
	maxBody := f.maxBody
	quant := f.quant
	versioned := f.versioned
	f.mu.RUnlock()
	if slot == nil {
		http.Error(w, fmt.Sprintf("unknown client %d", id), http.StatusNotFound)
		return
	}
	switch tail {
	case "v1/update":
		f.handleUpdate(w, r, slot, maxBody, versioned)
	case "v1/ranks":
		f.handleRanks(w, r, slot, maxBody, quant)
	case "v1/votes":
		f.handleVotes(w, r, slot, maxBody, quant)
	case "v1/accuracy":
		f.handleAccuracy(w, r, slot, maxBody)
	default:
		http.NotFound(w, r)
	}
}

// readFleetRequest is readRequest under the fleet's body cap, counting the
// bytes into fedload_bytes_in_total.
func readFleetRequest(w http.ResponseWriter, r *http.Request, maxBody int64, kind uint16) (request, bool) {
	req, n, ok := readRequest(w, r, maxBody, kind)
	obs.M.FedloadBytesIn.Add(uint64(n))
	return req, ok
}

// reportClient extracts the slot's reporting surface, answering 404 when
// the participant does not report (the status is 4xx on purpose:
// RemoteClient treats it as permanent and does not retry).
func reportClient(w http.ResponseWriter, slot *fleetSlot) (core.ReportClient, bool) {
	rc, ok := slot.part.(core.ReportClient)
	if !ok {
		http.Error(w, fmt.Sprintf("client %d serves no reports", slot.part.ID()), http.StatusNotFound)
	}
	return rc, ok
}

// handleRanks serves /c/<id>/v1/ranks from the participant's canned
// reports. The fleet is architecture-agnostic — it holds no model — so
// unlike ClientServer it validates neither the parameter vector nor the
// layer index; synthetic participants ignore both.
func (f *Fleet) handleRanks(w http.ResponseWriter, r *http.Request, slot *fleetSlot, maxBody int64, quant metrics.ReportQuant) {
	sp := requestSpan(r, "fedload.ranks", nil).WithClient(slot.part.ID())
	defer sp.End()
	req, ok := readFleetRequest(w, r, maxBody, wire.KindRankRequest)
	if !ok {
		return
	}
	defer req.release()
	rc, ok := reportClient(w, slot)
	if !ok {
		return
	}
	slot.mu.Lock()
	payload := appendRankReport(nil, rc, nil, req.Layer, quant)
	slot.mu.Unlock()
	cw := &countingWriter{ResponseWriter: w}
	writeReport(cw, payload)
	obs.M.FedloadBytesOut.Add(uint64(cw.n))
	obs.M.FedloadReports.Inc()
}

// handleVotes serves /c/<id>/v1/votes from the participant's canned
// reports.
func (f *Fleet) handleVotes(w http.ResponseWriter, r *http.Request, slot *fleetSlot, maxBody int64, quant metrics.ReportQuant) {
	sp := requestSpan(r, "fedload.votes", nil).WithClient(slot.part.ID())
	defer sp.End()
	req, ok := readFleetRequest(w, r, maxBody, wire.KindVoteRequest)
	if !ok {
		return
	}
	defer req.release()
	if !(req.Rate >= 0 && req.Rate <= 1) { // also rejects NaN
		http.Error(w, fmt.Sprintf("bad request: rate %g outside [0,1]", req.Rate), http.StatusBadRequest)
		return
	}
	rc, ok := reportClient(w, slot)
	if !ok {
		return
	}
	slot.mu.Lock()
	payload := appendVoteReport(nil, rc, nil, req.Layer, req.Rate, quant)
	slot.mu.Unlock()
	cw := &countingWriter{ResponseWriter: w}
	writeReport(cw, payload)
	obs.M.FedloadBytesOut.Add(uint64(cw.n))
	obs.M.FedloadReports.Inc()
}

// handleAccuracy serves /c/<id>/v1/accuracy.
func (f *Fleet) handleAccuracy(w http.ResponseWriter, r *http.Request, slot *fleetSlot, maxBody int64) {
	sp := requestSpan(r, "fedload.accuracy", nil).WithClient(slot.part.ID())
	defer sp.End()
	req, ok := readFleetRequest(w, r, maxBody, wire.KindAccuracyRequest)
	if !ok {
		return
	}
	defer req.release()
	ar, ok := slot.part.(core.AccuracyReporter)
	if !ok {
		http.Error(w, fmt.Sprintf("client %d serves no reports", slot.part.ID()), http.StatusNotFound)
		return
	}
	slot.mu.Lock()
	acc := ar.ReportAccuracy(nil)
	slot.mu.Unlock()
	cw := &countingWriter{ResponseWriter: w}
	encodeBody(cw, AccuracyResponse{Accuracy: acc})
	obs.M.FedloadBytesOut.Add(uint64(cw.n))
	obs.M.FedloadReports.Inc()
}

func (f *Fleet) handleUpdate(w http.ResponseWriter, r *http.Request, slot *fleetSlot, maxBody int64, versioned bool) {
	sp := requestSpan(r, "fedload.update", obs.M.FedloadUpdateSeconds).WithClient(slot.part.ID())
	defer func() { sp.End() }()
	req, ok := readFleetRequest(w, r, maxBody, wire.KindUpdateRequest)
	if !ok {
		return
	}
	defer req.release()
	sp = sp.WithRound(req.Round)
	slot.mu.Lock()
	delta := slot.part.LocalUpdate(req.Global, req.Round)
	slot.mu.Unlock()
	cw := &countingWriter{ResponseWriter: w}
	writeUpdate(cw, delta, versioned)
	obs.M.FedloadBytesOut.Add(uint64(cw.n))
	obs.M.FedloadUpdates.Inc()
}

// recoverToError converts a handler panic into an HTTP 500 and a
// fedload_handler_panics_total tick, isolating one faulty participant
// from the rest of the fleet.
func recoverToError(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				obs.M.FedloadHandlerPanics.Inc()
				obs.L().Error("fleet: handler panic", "path", r.URL.Path, "panic", fmt.Sprint(v))
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// countingWriter counts bytes written through it.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}
