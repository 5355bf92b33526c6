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
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Fleet hosts federated participants behind ONE listener: one OS process,
// one port, one http.Server, however many participants — one in a
// fedclient process, tens of thousands in a fedload load test. Each
// participant answers at the path prefix /c/<id>, so the stub address for
// client 42 on a fleet bound to host:port is
//
//	host:port/c/42
//
// — exactly the addr NewRemoteClient expects (FleetClientAddr builds it),
// meaning the aggregation server drives a fleet through completely
// unmodified RemoteClients.
//
// The fleet's handlers are the package's one implementation of the
// protocol: the update endpoint (POST /c/<id>/v1/update) plus the
// defense's report endpoints (/v1/ranks, /v1/votes) for participants that
// implement the reporting interfaces — fl.SyntheticClient answers them with
// canned deterministic reports, so a load run exercises the report wire
// path end to end. Report responses carry the participant's own ranks and
// votes in the compact codecs of codec.go. Every request is instrumented
// into the fedload_* metrics, and a participant panic is
// recovered to an HTTP 500 plus a fedload_handler_panics_total tick
// instead of taking down the other tens of thousands of clients sharing
// the process.
type Fleet struct {
	mu    sync.RWMutex
	slots map[int]*fleetSlot
	// last is the last request that decoded: a server sends every client
	// of a round or a report collection the same body, and the fleet
	// decodes it once (decodeVerified).
	last memo[*verifiedRequest]

	life lifecycle
}

// endpoint is one of the protocol's three: the request kind it reads, the
// name its server-side span traces under and the histogram that span feeds.
type endpoint struct {
	kind uint16
	span string
	hist *obs.Histogram
}

// fleetEndpoints are the three endpoints, by path below /c/<id>/.
var fleetEndpoints = map[string]endpoint{
	"v1/update": {wire.KindUpdateRequest, "fedload.update", obs.M.FedloadUpdateSeconds},
	"v1/ranks":  {wire.KindRankRequest, "fedload.ranks", nil},
	"v1/votes":  {wire.KindVoteRequest, "fedload.votes", nil},
}

// fleetSlot pairs a participant with the mutex serializing calls into it:
// fl's participants are concurrency-safe, but the fleet does not assume that
// of an arbitrary Participant and calls one a request at a time.
type fleetSlot struct {
	mu   sync.Mutex
	part fl.Participant
	// template, in a slot that has one (AddWithModel), is the model
	// architecture: requests are validated against it and report calls get
	// it with the requested parameters installed (report). A slot without
	// one (Fleet.Add) is architecture-agnostic: it validates neither the
	// parameter vector nor the layer index and hands the participant a nil
	// model, which synthetic participants ignore.
	template *nn.Sequential
}

// envelopeSlack is what an envelope may measure beyond the vector it
// carries. Header, scalar sections, vector count and CRC come to under 100
// bytes; the rest is room for sections a newer peer adds.
const envelopeSlack = 1 << 10

// envelopeLimit is the body cap for a request or update response carrying a
// vector of n values.
func envelopeLimit(n int) int64 { return 8*int64(n) + envelopeSlack }

// fleetMaxBody caps a request to a slot without a template: a size no
// parameter vector in this codebase approaches.
const fleetMaxBody = 64 << 20

// maxBody bounds a request body so a malicious or corrupted peer cannot
// make the decoder allocate unboundedly.
func (s *fleetSlot) maxBody() int64 {
	if s.template == nil {
		return fleetMaxBody
	}
	return envelopeLimit(s.template.NumParams())
}

// NewFleet builds an empty fleet.
func NewFleet() *Fleet {
	return &Fleet{slots: make(map[int]*fleetSlot)}
}

// Add registers participants under their IDs, in slots without a model
// architecture (fleetSlot.template). A duplicate ID is a programming error
// and panics.
func (f *Fleet) Add(parts ...fl.Participant) {
	for _, p := range parts {
		f.add(p, nil)
	}
}

// AddWithModel registers one participant whose reports are taken on models
// of template's architecture, like Add otherwise. Its slot carries a
// private clone of template, its Params list built before concurrent
// handlers read it: requests are validated against the architecture, and
// report calls are handed the clone with the requested parameters
// installed.
func (f *Fleet) AddWithModel(p fl.Participant, template *nn.Sequential) {
	tmpl := template.Clone()
	tmpl.Params()
	f.add(p, tmpl)
}

// add registers one participant, with the template its slot carries.
func (f *Fleet) add(p fl.Participant, template *nn.Sequential) {
	slot := &fleetSlot{part: p, template: template}
	f.mu.Lock()
	if _, dup := f.slots[p.ID()]; dup {
		f.mu.Unlock()
		panic(fmt.Sprintf("transport: Fleet.Add: duplicate client %d", p.ID()))
	}
	f.slots[p.ID()] = slot
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
// a background goroutine; the terminal error arrives on Err. Serve can be
// called at most once; a second call, or a call after Shutdown, returns an
// error.
func (f *Fleet) Serve(addr string) (string, error) {
	return f.life.serve(addr, f.Handler())
}

// Err returns the channel delivering the terminal serve error (nil after
// a clean Shutdown, the net/http failure otherwise); nil before Serve.
func (f *Fleet) Err() <-chan error { return f.life.errChan() }

// Shutdown stops the fleet gracefully. Calling it before Serve (or twice)
// is safe; afterwards the fleet cannot serve again.
func (f *Fleet) Shutdown(ctx context.Context) error {
	return f.life.shutdown(ctx)
}

// route dispatches /c/<id>/v1/* to the participant's slot.
func (f *Fleet) route(w http.ResponseWriter, r *http.Request) {
	idStr, path, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/c/"), "/")
	id, err := strconv.Atoi(idStr)
	ep, ok := fleetEndpoints[path]
	if err != nil || !ok {
		http.NotFound(w, r)
		return
	}
	f.mu.RLock()
	slot := f.slots[id]
	f.mu.RUnlock()
	if slot == nil {
		http.Error(w, fmt.Sprintf("unknown client %d", id), http.StatusNotFound)
		return
	}
	f.serve(w, r, slot, ep)
}

// serve answers one request to an endpoint from slot: the one place a
// request is read, validated and traced.
func (f *Fleet) serve(w http.ResponseWriter, r *http.Request, slot *fleetSlot, ep endpoint) {
	// A child of the caller's attempt span when the request carries trace
	// headers, linking this process's work into the caller's round tree; a
	// request without them roots a trace of its own.
	sp := obs.StartChildOf(obs.ExtractHeaders(r.Header), ep.span, ep.hist).WithClient(slot.part.ID())
	defer func() { sp.End() }()
	req, ok := slot.readRequest(w, r, ep.kind, &f.last)
	if !ok {
		return
	}
	defer req.release()
	switch ep.kind {
	case wire.KindUpdateRequest:
		sp = sp.WithRound(req.Round)
		handleUpdate(w, slot, req)
	case wire.KindRankRequest:
		handleRanks(w, slot, req)
	case wire.KindVoteRequest:
		handleVotes(w, slot, req)
	}
}

// readRequest reads one request to the slot under its body cap, counting
// the bytes into fedload_bytes_in_total, and validates it against the
// slot's template when there is one: without this a well-formed envelope
// of the wrong size would panic SetParamsVector inside the handler, and a
// report on a layer without units (a ReLU, a pool) the participant's
// activation recording. The validation runs on every request, one served
// from the fleet's last verified request included: that one may have
// passed another slot's, or none. It answers 405 or 400 itself when it returns !ok; the caller
// releases the returned request.
func (s *fleetSlot) readRequest(w http.ResponseWriter, r *http.Request, kind uint16, verified *memo[*verifiedRequest]) (request, bool) {
	req, n, ok := readRequest(w, r, s.maxBody(), kind, verified)
	obs.M.FedloadBytesIn.Add(uint64(n))
	if !ok || s.template == nil {
		return req, ok
	}
	var bad string
	if len(req.Global) != s.template.NumParams() {
		bad = fmt.Sprintf("%d params, want %d", len(req.Global), s.template.NumParams())
	} else if kind == wire.KindRankRequest || kind == wire.KindVoteRequest {
		if req.Layer < 0 || req.Layer >= s.template.NumLayers() {
			bad = fmt.Sprintf("layer %d outside [0,%d)", req.Layer, s.template.NumLayers())
		} else if _, ok := s.template.Layer(req.Layer).(nn.Prunable); !ok {
			bad = fmt.Sprintf("layer %d has no units to report on", req.Layer)
		}
	}
	if bad != "" {
		req.release()
		http.Error(w, "bad request: "+bad, http.StatusBadRequest)
		return request{}, false
	}
	return req, true
}

// report runs one report call into the participant under the slot mutex,
// handing it the model the call reports on: the slot's template with the
// requested parameters installed, or nil for a slot without a template. The
// mutex serializes the slot's calls, so nothing else reads the template's
// parameters meanwhile — readRequest's validation reads only its shape. The
// participant only reads the model (core.ReportClient) and runs it on a
// working model of its own. Nothing prunes the template — AddWithModel's
// private clone — so it carries no mask the requested parameters would not.
func (s *fleetSlot) report(global []float64, call func(m *nn.Sequential)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.template == nil {
		call(nil)
		return
	}
	s.template.SetParamsVector(global)
	call(s.template)
}

// update runs one LocalUpdate under the slot mutex.
func (s *fleetSlot) update(global []float64, round int) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.part.LocalUpdate(global, round)
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

// heldBack is how much of a response writeBody writes apart from the rest.
const heldBack = 16

// writeBody sends one response body, its length declared, and counts it
// into fedload_bytes_out_total. The last heldBack bytes are written on
// their own: net/http passes a large write straight to the socket but keeps
// a small one in its buffer until the handler has returned, so the caller
// cannot see the response complete — and end its round — before everything
// the handler chain does on the way out (spans, counters, a wrapping
// middleware's bookkeeping) is done. Reports are small enough to be held
// whole; an update response would otherwise be complete at the peer while
// its handler was still running.
func writeBody(w http.ResponseWriter, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	head := max(len(body)-heldBack, 0)
	n, err := w.Write(body[:head])
	if err == nil {
		m, _ := w.Write(body[head:])
		n += m
	}
	obs.M.FedloadBytesOut.Add(uint64(n))
}

// writeReport sends a compact report payload, also counting its bytes as
// report traffic.
func writeReport(w http.ResponseWriter, payload []byte) {
	writeBody(w, reportContentType, payload)
	obs.M.TransportReportBytesSent.Add(uint64(len(payload)))
	obs.M.FedloadReports.Inc()
}

func handleUpdate(w http.ResponseWriter, slot *fleetSlot, req request) {
	delta := slot.update(req.Global, req.Round)
	// The envelope is encoded into a pooled buffer that is done with once
	// Write returns; the delta — the handler's from the moment the
	// participant returned it — is done with once it is encoded.
	buf := wire.GetBuffer()
	defer buf.Release()
	buf.B = AppendVersionedUpdate(buf.B, delta)
	wire.PutFloat64s(delta)
	writeBody(w, updateContentType, buf.B)
	obs.M.FedloadUpdates.Inc()
}

func handleRanks(w http.ResponseWriter, slot *fleetSlot, req request) {
	rc, ok := reportClient(w, slot)
	if !ok {
		return
	}
	var payload []byte
	slot.report(req.Global, func(m *nn.Sequential) { payload = AppendRanksDelta(nil, rc.RankReport(m, req.Layer)) })
	writeReport(w, payload)
}

func handleVotes(w http.ResponseWriter, slot *fleetSlot, req request) {
	if !(req.Rate >= 0 && req.Rate <= 1) { // also rejects NaN
		http.Error(w, fmt.Sprintf("bad request: rate %g outside [0,1]", req.Rate), http.StatusBadRequest)
		return
	}
	rc, ok := reportClient(w, slot)
	if !ok {
		return
	}
	var payload []byte
	slot.report(req.Global, func(m *nn.Sequential) { payload = AppendVoteBitmap(nil, rc.VoteReport(m, req.Layer, req.Rate)) })
	writeReport(w, payload)
}

// reportContentType marks a tagged compact report payload.
const reportContentType = "application/x-fedcleanse-report"

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
