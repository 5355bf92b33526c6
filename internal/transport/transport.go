// Package transport runs the federated protocol over real network
// connections: each client is an HTTP server speaking a small binary
// message protocol, and the aggregation server drives rounds through
// RemoteClient stubs. The in-process simulator (internal/fl) and this
// package share all interfaces, so a federation can mix local and remote
// participants; the transport tests verify bit-identical results between
// the two.
//
// The protocol has four endpoints, mirroring what the paper's server asks
// of clients:
//
//	POST /v1/update    — one round of local training; returns the delta
//	POST /v1/ranks     — RAP rank report for a layer
//	POST /v1/votes     — MVP vote report for a layer at a rate
//	POST /v1/accuracy  — client-reported accuracy (pruning feedback)
//
// Requests and update responses are versioned wire envelopes
// (request_codec.go, update_codec.go; DESIGN.md §15), encoded into and read
// through pooled buffers. Model parameters travel as flat vectors; both
// sides hold the architecture (as in cross-silo FL deployments, where the
// model definition ships with the software). Report responses default to
// the compact tagged codecs of codec.go (varint-delta ranks, bit-packed
// votes, int8 activation payloads). Every reader sniffs the first byte and
// still accepts the gob structs below, which older binaries emit
// (DESIGN.md §14, §15).
//
// Failure model (DESIGN.md §10): every remote call can fail — crashes,
// stragglers, partitions, corrupted responses. RemoteClient never panics;
// each logical call runs a bounded retry loop (per-attempt timeouts,
// capped exponential backoff) under the caller's context, and surfaces
// the final error through the fallible interfaces
// (fl.FallibleParticipant, core.FallibleReportClient,
// core.FallibleAccuracyReporter) that the round drivers use to record a
// dropout and continue on the surviving quorum. The deterministic
// FaultInjector in fault.go reproduces the failure modes in tests.
package transport

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Protocol messages.

// UpdateRequest asks the client for one round of local training from the
// given global parameters.
type UpdateRequest struct {
	Global []float64
	Round  int
}

// UpdateResponse carries the client's update delta.
type UpdateResponse struct {
	Delta []float64
}

// RankRequest asks for the client's RAP rank report on a layer of the
// model described by the global parameters.
type RankRequest struct {
	Global []float64
	Layer  int
}

// RankResponse carries the rank report.
type RankResponse struct {
	Ranks []int
}

// VoteRequest asks for the client's MVP vote report at a pruning rate.
type VoteRequest struct {
	Global []float64
	Layer  int
	Rate   float64
}

// VoteResponse carries the vote report.
type VoteResponse struct {
	Votes []bool
}

// AccuracyRequest asks the client to evaluate the given parameters on its
// local data.
type AccuracyRequest struct {
	Global []float64
}

// AccuracyResponse carries the reported accuracy.
type AccuracyResponse struct {
	Accuracy float64
}

// participant is the full client-side surface the transport exposes.
type participant interface {
	fl.Participant
	core.ReportClient
	core.AccuracyReporter
}

// ReportWire selects how a server encodes its report responses.
type ReportWire int

const (
	// WireCompact answers report requests with the tagged compact codecs
	// of codec.go (the default).
	WireCompact ReportWire = iota
	// WireGob answers with the legacy gob response structs; receivers
	// interoperate transparently by sniffing the codec tag.
	WireGob
)

// ClientServer exposes one federated participant over HTTP.
type ClientServer struct {
	part participant
	// template provides the model architecture for report requests.
	template *nn.Sequential
	// maxBody bounds request bodies so a malicious or corrupted peer
	// cannot make the decoder allocate unboundedly.
	maxBody int64
	// wire selects the report response encoding; quant the report
	// precision shipped in compact mode (see handleRanks).
	wire  ReportWire
	quant metrics.ReportQuant
	// versioned answers /v1/update with the versioned envelope encoding
	// (update_codec.go), the default; false selects legacy gob.
	versioned bool

	mu sync.Mutex // serializes access to the participant

	mwMu       sync.Mutex
	middleware func(http.Handler) http.Handler

	life lifecycle
}

// NewClientServer wraps a participant (an fl.Client or fl.Attacker; both
// implement the defense reporting interfaces). template provides the model
// architecture and is cloned per request model reconstruction.
func NewClientServer(part participant, template *nn.Sequential) *ClientServer {
	return &ClientServer{
		part:     part,
		template: template.Clone(),
		// A parameter vector gob-encodes to at most ~9 bytes per float64;
		// 16x plus slack accommodates every legitimate request.
		maxBody:   int64(template.NumParams())*16 + 1<<16,
		versioned: true,
	}
}

// SetReportWire selects the report response encoding. It must be called
// before Serve or Handler.
func (cs *ClientServer) SetReportWire(w ReportWire) { cs.wire = w }

// SetVersionedUpdates selects between the versioned envelope encoding for
// /v1/update responses (DESIGN.md §15; the default) and legacy gob, for
// aggregators older than the envelope. Receivers interoperate with either
// encoding transparently by first-byte sniffing, so a fleet can be
// migrated one server at a time. It must be called before Serve or
// Handler.
func (cs *ClientServer) SetVersionedUpdates(v bool) { cs.versioned = v }

// SetReportQuant selects the precision of compact-mode activation report
// payloads: ReportInt8 ships affine-quantized Acts8 payloads (the ~8x
// bandwidth mode, DESIGN.md §14); ReportFloat64 — the default — ships the
// client's losslessly-encoded rank/vote reports. It must be called before
// Serve or Handler.
func (cs *ClientServer) SetReportQuant(q metrics.ReportQuant) { cs.quant = q }

// SetMiddleware installs a handler wrapper applied around the protocol
// mux (tests use it to inject server-side faults). It must be called
// before Serve or Handler.
func (cs *ClientServer) SetMiddleware(mw func(http.Handler) http.Handler) {
	cs.mwMu.Lock()
	defer cs.mwMu.Unlock()
	cs.middleware = mw
}

// Handler returns the protocol handler (with any installed middleware),
// for callers that embed the endpoints into their own server.
func (cs *ClientServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/update", cs.handleUpdate)
	mux.HandleFunc("/v1/ranks", cs.handleRanks)
	mux.HandleFunc("/v1/votes", cs.handleVotes)
	mux.HandleFunc("/v1/accuracy", cs.handleAccuracy)
	cs.mwMu.Lock()
	mw := cs.middleware
	cs.mwMu.Unlock()
	if mw != nil {
		return mw(mux)
	}
	return mux
}

// Serve starts listening on addr ("127.0.0.1:0" for an ephemeral port) and
// serves until Shutdown. It returns the bound address. Serving happens on
// a background goroutine; its terminal error is delivered on the Err
// channel (nil after a clean Shutdown). Serve can be called at most once;
// a second call, or a call after Shutdown, returns an error.
func (cs *ClientServer) Serve(addr string) (string, error) {
	return cs.life.serve(addr, cs.Handler())
}

// Err returns the channel that delivers the terminal serve error: nil
// after a clean Shutdown, the net/http failure otherwise. It returns nil
// before Serve has been called.
func (cs *ClientServer) Err() <-chan error {
	return cs.life.errChan()
}

// Shutdown stops the server. Calling it before Serve (or twice) is safe;
// after Shutdown the ClientServer cannot serve again.
func (cs *ClientServer) Shutdown(ctx context.Context) error {
	return cs.life.shutdown(ctx)
}

// modelFor reconstructs a model with the given parameters.
func (cs *ClientServer) modelFor(global []float64) *nn.Sequential {
	m := cs.template.Clone()
	m.SetParamsVector(global)
	return m
}

// checkGlobal rejects parameter vectors that do not match the template
// architecture; without this a malformed-but-valid-gob body would panic
// SetParamsVector inside the handler.
func (cs *ClientServer) checkGlobal(w http.ResponseWriter, global []float64) bool {
	if len(global) != cs.template.NumParams() {
		http.Error(w, fmt.Sprintf("bad request: %d params, want %d",
			len(global), cs.template.NumParams()), http.StatusBadRequest)
		return false
	}
	return true
}

// checkLayer rejects out-of-range layer indices.
func (cs *ClientServer) checkLayer(w http.ResponseWriter, layer int) bool {
	if layer < 0 || layer >= cs.template.NumLayers() {
		http.Error(w, fmt.Sprintf("bad request: layer %d outside [0,%d)",
			layer, cs.template.NumLayers()), http.StatusBadRequest)
		return false
	}
	return true
}

// requestSpan opens the server-side span for one protocol request: a
// child of the caller's attempt span when the request carries trace
// headers — linking this process's work into the caller's round tree —
// and an untraced span otherwise, so callers without tracing do not
// scatter one-span trees through the ring.
func requestSpan(r *http.Request, name string, hist *obs.Histogram) obs.Span {
	if sc := obs.ExtractHeaders(r.Header); sc.Valid() {
		return obs.StartChildOf(sc, name, hist)
	}
	return obs.StartSpan(name, hist)
}

func (cs *ClientServer) handleUpdate(w http.ResponseWriter, r *http.Request) {
	sp := requestSpan(r, "client.update", nil).WithClient(cs.part.ID())
	defer func() { sp.End() }()
	req, _, ok := readRequest(w, r, cs.maxBody, wire.KindUpdateRequest)
	if !ok {
		return
	}
	defer req.release()
	if !cs.checkGlobal(w, req.Global) {
		return
	}
	sp = sp.WithRound(req.Round)
	cs.mu.Lock()
	delta := cs.part.LocalUpdate(req.Global, req.Round)
	cs.mu.Unlock()
	writeUpdate(w, delta, cs.versioned)
}

// writeUpdate sends one /v1/update response: the versioned envelope,
// encoded into a pooled buffer that is done with once Write returns, or
// the legacy gob struct.
func writeUpdate(w http.ResponseWriter, delta []float64, versioned bool) {
	if !versioned {
		encodeBody(w, UpdateResponse{Delta: delta})
		return
	}
	buf := wire.GetBuffer()
	defer buf.Release()
	buf.B = AppendVersionedUpdate(buf.B, delta)
	w.Header().Set("Content-Type", updateContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(buf.B)))
	_, _ = w.Write(buf.B)
}

func (cs *ClientServer) handleRanks(w http.ResponseWriter, r *http.Request) {
	sp := requestSpan(r, "client.ranks", nil).WithClient(cs.part.ID())
	defer sp.End()
	req, _, ok := readRequest(w, r, cs.maxBody, wire.KindRankRequest)
	if !ok {
		return
	}
	defer req.release()
	if !cs.checkGlobal(w, req.Global) || !cs.checkLayer(w, req.Layer) {
		return
	}
	cs.mu.Lock()
	if cs.wire == WireGob {
		ranks := cs.part.RankReport(cs.modelFor(req.Global), req.Layer)
		cs.mu.Unlock()
		encodeReportGob(w, RankResponse{Ranks: ranks})
		return
	}
	payload := appendRankReport(nil, cs.part, cs.modelFor(req.Global), req.Layer, cs.quant)
	cs.mu.Unlock()
	writeReport(w, payload)
}

func (cs *ClientServer) handleVotes(w http.ResponseWriter, r *http.Request) {
	sp := requestSpan(r, "client.votes", nil).WithClient(cs.part.ID())
	defer sp.End()
	req, _, ok := readRequest(w, r, cs.maxBody, wire.KindVoteRequest)
	if !ok {
		return
	}
	defer req.release()
	if !cs.checkGlobal(w, req.Global) || !cs.checkLayer(w, req.Layer) {
		return
	}
	if !(req.Rate >= 0 && req.Rate <= 1) { // also rejects NaN
		http.Error(w, fmt.Sprintf("bad request: rate %g outside [0,1]", req.Rate),
			http.StatusBadRequest)
		return
	}
	cs.mu.Lock()
	if cs.wire == WireGob {
		votes := cs.part.VoteReport(cs.modelFor(req.Global), req.Layer, req.Rate)
		cs.mu.Unlock()
		encodeReportGob(w, VoteResponse{Votes: votes})
		return
	}
	payload := appendVoteReport(nil, cs.part, cs.modelFor(req.Global), req.Layer, req.Rate, cs.quant)
	cs.mu.Unlock()
	writeReport(w, payload)
}

// appendRankReport builds the compact /v1/ranks payload for a report
// client. In int8 mode an ActivationReporter ships its quantized
// activation vector (Acts8) and the receiver reconstructs the ranks — one
// small payload serves both aggregations; otherwise the client-computed
// rank vector travels varint-delta encoded (RanksDelta), bit-identical to
// the gob values.
func appendRankReport(dst []byte, part core.ReportClient, m *nn.Sequential, layer int, quant metrics.ReportQuant) []byte {
	if ar, ok := part.(core.ActivationReporter); ok && quant == metrics.ReportInt8 {
		return AppendActs8(dst, metrics.QuantizeActivations(ar.ActivationReport(m, layer)))
	}
	return AppendRanksDelta(dst, part.RankReport(m, layer))
}

// appendVoteReport builds the compact /v1/votes payload: always a
// VoteBitmap. In int8 mode the votes are derived from the quantized
// activation vector, so they agree bit-for-bit with the ranks a receiver
// reconstructs from the same client's Acts8 payload.
func appendVoteReport(dst []byte, part core.ReportClient, m *nn.Sequential, layer int, rate float64, quant metrics.ReportQuant) []byte {
	if ar, ok := part.(core.ActivationReporter); ok && quant == metrics.ReportInt8 {
		q := metrics.QuantizeActivations(ar.ActivationReport(m, layer))
		return AppendVoteBitmap(dst, core.VotesFromQuantized(q.Q, rate))
	}
	return AppendVoteBitmap(dst, part.VoteReport(m, layer, rate))
}

// reportContentType marks a tagged compact report payload.
const reportContentType = "application/x-fedcleanse-report"

// writeReport sends a compact report payload, counting its bytes.
func writeReport(w http.ResponseWriter, payload []byte) {
	w.Header().Set("Content-Type", reportContentType)
	n, _ := w.Write(payload)
	obs.M.TransportReportBytesSent.Add(uint64(n))
}

// encodeReportGob is encodeBody plus the report byte counter, for the
// legacy report encoding.
func encodeReportGob(w http.ResponseWriter, v any) {
	obs.M.TransportReportBytesSent.Add(uint64(encodeBody(w, v)))
}

func (cs *ClientServer) handleAccuracy(w http.ResponseWriter, r *http.Request) {
	sp := requestSpan(r, "client.accuracy", nil).WithClient(cs.part.ID())
	defer sp.End()
	req, _, ok := readRequest(w, r, cs.maxBody, wire.KindAccuracyRequest)
	if !ok {
		return
	}
	defer req.release()
	if !cs.checkGlobal(w, req.Global) {
		return
	}
	cs.mu.Lock()
	acc := cs.part.ReportAccuracy(cs.modelFor(req.Global))
	cs.mu.Unlock()
	encodeBody(w, AccuracyResponse{Accuracy: acc})
}

// encodeBody sends a gob response struct — the accuracy response, and the
// update and report responses when the legacy encodings are selected — and
// returns the body bytes written.
func encodeBody(w http.ResponseWriter, v any) int {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return 0
	}
	w.Header().Set("Content-Type", "application/x-gob")
	n, _ := w.Write(buf.Bytes())
	return n
}

// RetryPolicy bounds RemoteClient's per-call retry loop.
type RetryPolicy struct {
	// MaxAttempts is the retry budget per logical call (minimum 1).
	MaxAttempts int
	// AttemptTimeout bounds each individual HTTP attempt; 0 means no
	// per-attempt deadline beyond the caller's context.
	AttemptTimeout time.Duration
	// BaseBackoff is the wait before the first retry; it doubles per
	// subsequent retry, capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff (0 means BaseBackoff).
	MaxBackoff time.Duration
}

// DefaultRetryPolicy returns the production defaults: three attempts with
// 50 ms base backoff capped at 2 s, each attempt bounded to one minute.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:    3,
		AttemptTimeout: time.Minute,
		BaseBackoff:    50 * time.Millisecond,
		MaxBackoff:     2 * time.Second,
	}
}

// withDefaults fills unset fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = p.BaseBackoff
	}
	return p
}

// backoff returns the wait before retry number n (0-based): capped
// exponential growth from BaseBackoff.
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.BaseBackoff
	for i := 0; i < n && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// StatusError is returned when the peer answers with a non-200 status.
type StatusError struct {
	Path string
	Code int
	Body string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("transport: %s: HTTP %d: %s", e.Path, e.Code, e.Body)
}

// permanent reports whether err cannot be cured by retrying the same
// bytes: 4xx rejections.
func permanent(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code >= 400 && se.Code < 500
}

// RemoteOption configures a RemoteClient.
type RemoteOption func(*RemoteClient)

// WithRetryPolicy overrides the client's retry policy.
func WithRetryPolicy(p RetryPolicy) RemoteOption {
	return func(rc *RemoteClient) { rc.retry = p.withDefaults() }
}

// WithTransport installs a custom http.RoundTripper (fault injectors,
// instrumented transports). nil restores the shared default.
func WithTransport(rt http.RoundTripper) RemoteOption {
	return func(rc *RemoteClient) {
		if rt == nil {
			rt = sharedTransport()
		}
		rc.httpc.Transport = rt
	}
}

// sharedTransport is the one http.Transport behind every stub that does
// not install its own: a registry server builds a fresh stub per selected
// client per round, so connection reuse has to live above the stubs.
var sharedTransport = sync.OnceValue(newStubTransport)

// newStubTransport is http.DefaultTransport with its idle pool sized to
// the calls a round driver keeps in flight against one host — a fleet is
// one host, and the streaming window is two per worker — where the
// default of 2 closes and re-dials the surplus connections every round.
func newStubTransport() *http.Transport {
	t := &http.Transport{}
	if dt, ok := http.DefaultTransport.(*http.Transport); ok {
		t = dt.Clone()
	}
	t.MaxIdleConnsPerHost = max(2*parallel.Workers(), 64)
	t.MaxIdleConns = max(t.MaxIdleConns, t.MaxIdleConnsPerHost)
	return t
}

// RemoteClient is the server-side stub for a client reachable over HTTP.
// It implements fl.Participant, core.ReportClient and
// core.AccuracyReporter, so it drops into both federated training and the
// defense pipeline — and their fallible extensions
// (fl.FallibleParticipant, core.FallibleReportClient,
// core.FallibleAccuracyReporter), which the round drivers prefer: a
// failed call becomes a recorded dropout, never a panic.
type RemoteClient struct {
	id      int
	baseURL string
	httpc   *http.Client
	retry   RetryPolicy

	errMu   sync.Mutex
	lastErr error
}

var (
	_ fl.Participant                = (*RemoteClient)(nil)
	_ fl.FallibleParticipant        = (*RemoteClient)(nil)
	_ core.ReportClient             = (*RemoteClient)(nil)
	_ core.FallibleReportClient     = (*RemoteClient)(nil)
	_ core.AccuracyReporter         = (*RemoteClient)(nil)
	_ core.FallibleAccuracyReporter = (*RemoteClient)(nil)
)

// NewRemoteClient builds a stub for the client server at addr
// (host:port) with the default retry policy.
func NewRemoteClient(id int, addr string, opts ...RemoteOption) *RemoteClient {
	rc := &RemoteClient{
		id:      id,
		baseURL: "http://" + addr,
		httpc:   &http.Client{Transport: sharedTransport()},
		retry:   DefaultRetryPolicy(),
	}
	for _, opt := range opts {
		opt(rc)
	}
	return rc
}

// ID implements fl.Participant.
func (rc *RemoteClient) ID() int { return rc.id }

// Dataset implements fl.Participant. Remote clients never expose their
// data — that is the point of federated learning — so it returns nil; the
// defense uses the report endpoints instead.
func (rc *RemoteClient) Dataset() *dataset.Dataset { return nil }

// LastErr returns the error of the client's most recent failed call, or
// nil if the last call succeeded.
func (rc *RemoteClient) LastErr() error {
	rc.errMu.Lock()
	defer rc.errMu.Unlock()
	return rc.lastErr
}

func (rc *RemoteClient) noteErr(err error) {
	rc.errMu.Lock()
	rc.lastErr = err
	rc.errMu.Unlock()
}

// TryLocalUpdate implements fl.FallibleParticipant over the wire. The
// response body is sniffed by its first byte: a versioned KindUpdate
// envelope decodes through update_codec.go, anything else falls back to
// the legacy gob UpdateResponse — so one client release speaks to servers
// on either side of the encoding migration.
func (rc *RemoteClient) TryLocalUpdate(ctx context.Context, global []float64, round int) ([]float64, error) {
	resp, err := call[updatePayload](rc, ctx, "/v1/update", wire.KindUpdateRequest, request{Global: global, Round: round})
	if err != nil {
		return nil, err
	}
	return resp.Delta, nil
}

// TryRankReport implements core.FallibleReportClient over the wire. The
// response payload is sniffed by codec tag: compact RanksDelta vectors
// decode directly, Acts8/Acts64 activation payloads are reconstructed into
// ranks server-side (core.RanksFromQuantized / RanksFromActivations), and
// untagged bodies fall back to the legacy gob decode.
func (rc *RemoteClient) TryRankReport(ctx context.Context, m *nn.Sequential, layerIdx int) ([]int, error) {
	resp, err := call[rankPayload](rc, ctx, "/v1/ranks", wire.KindRankRequest, request{Model: m, Layer: layerIdx})
	if err != nil {
		return nil, err
	}
	return resp.Ranks, nil
}

// TryVoteReport implements core.FallibleReportClient over the wire, with
// the same tag-sniffing decode as TryRankReport (an activation payload is
// reconstructed into votes at the requested rate).
func (rc *RemoteClient) TryVoteReport(ctx context.Context, m *nn.Sequential, layerIdx int, p float64) ([]bool, error) {
	resp, err := callFrom(rc, ctx, "/v1/votes", wire.KindVoteRequest, request{Model: m, Layer: layerIdx, Rate: p}, votePayload{Rate: p})
	if err != nil {
		return nil, err
	}
	return resp.Votes, nil
}

// maxReportBody bounds a report response body read; the largest
// legitimate payload (Acts64 at maxReportLen units) stays far below it.
const maxReportBody = 1 << 28

// bodyDecoder lets a response type own its wire decoding instead of the
// default gob path; decode failures inside an attempt retry like any
// other attempt failure.
type bodyDecoder interface {
	DecodeBody(r io.Reader) error
}

// rankPayload decodes a /v1/ranks response of any supported encoding.
type rankPayload struct {
	Ranks []int
}

// DecodeBody implements bodyDecoder.
func (rp *rankPayload) DecodeBody(r io.Reader) error {
	buf, err := readBody(r, maxReportBody)
	if err != nil {
		return fmt.Errorf("transport: read report body: %w", err)
	}
	defer buf.Release()
	b := buf.B
	switch {
	case len(b) == 0:
		return errors.New("transport: empty rank report")
	case b[0] == TagRanksDelta:
		rp.Ranks, err = DecodeRanksDelta(b)
	case b[0] == TagActs8:
		var q metrics.QuantActs
		if q, err = DecodeActs8(b); err == nil {
			rp.Ranks = core.RanksFromQuantized(q.Q)
		}
	case b[0] == TagActs64:
		var acts []float64
		if acts, err = DecodeActs64(b); err == nil {
			rp.Ranks = core.RanksFromActivations(acts)
		}
	case b[0] == TagVoteBitmap:
		return errors.New("transport: vote bitmap on the rank endpoint")
	default:
		var resp RankResponse
		if err = gob.NewDecoder(bytes.NewReader(b)).Decode(&resp); err == nil {
			rp.Ranks = resp.Ranks
		}
	}
	if err != nil {
		return err
	}
	obs.M.TransportReportBytesRecv.Add(uint64(len(b)))
	return nil
}

// votePayload decodes a /v1/votes response of any supported encoding;
// Rate must be set to the requested pruning rate before the call so an
// activation payload reconstructs the same votes the client would have
// sent.
type votePayload struct {
	Rate  float64
	Votes []bool
}

// DecodeBody implements bodyDecoder.
func (vp *votePayload) DecodeBody(r io.Reader) error {
	buf, err := readBody(r, maxReportBody)
	if err != nil {
		return fmt.Errorf("transport: read report body: %w", err)
	}
	defer buf.Release()
	b := buf.B
	switch {
	case len(b) == 0:
		return errors.New("transport: empty vote report")
	case b[0] == TagVoteBitmap:
		vp.Votes, err = DecodeVoteBitmap(b)
	case b[0] == TagActs8:
		var q metrics.QuantActs
		if q, err = DecodeActs8(b); err == nil {
			vp.Votes = core.VotesFromQuantized(q.Q, vp.Rate)
		}
	case b[0] == TagActs64:
		var acts []float64
		if acts, err = DecodeActs64(b); err == nil {
			vp.Votes = core.VotesFromActivations(acts, vp.Rate)
		}
	case b[0] == TagRanksDelta:
		return errors.New("transport: rank vector on the vote endpoint")
	default:
		var resp VoteResponse
		if err = gob.NewDecoder(bytes.NewReader(b)).Decode(&resp); err == nil {
			vp.Votes = resp.Votes
		}
	}
	if err != nil {
		return err
	}
	obs.M.TransportReportBytesRecv.Add(uint64(len(b)))
	return nil
}

// readBody gathers a response body of at most limit bytes in a pooled
// buffer. The caller decodes out of it — every decoder copies — and then
// releases it.
func readBody(r io.Reader, limit int64) (*wire.Buffer, error) {
	buf := wire.GetBuffer()
	if err := buf.ReadAll(r, limit); err != nil {
		buf.Release()
		return nil, err
	}
	return buf, nil
}

// TryReportAccuracy implements core.FallibleAccuracyReporter over the
// wire.
func (rc *RemoteClient) TryReportAccuracy(ctx context.Context, m *nn.Sequential) (float64, error) {
	resp, err := call[AccuracyResponse](rc, ctx, "/v1/accuracy", wire.KindAccuracyRequest, request{Model: m})
	if err != nil {
		return 0, err
	}
	return resp.Accuracy, nil
}

// LocalUpdate implements fl.Participant over the wire. A transport
// failure yields a nil delta, which fl's round drivers record as a
// dropout (the error is retained in LastErr); prefer TryLocalUpdate for
// explicit error handling.
func (rc *RemoteClient) LocalUpdate(global []float64, round int) []float64 {
	d, err := rc.TryLocalUpdate(context.Background(), global, round)
	if err != nil {
		return nil
	}
	return d
}

// RankReport implements core.ReportClient over the wire; failures yield a
// nil report, recorded as a dropout by the defense's report collection.
func (rc *RemoteClient) RankReport(m *nn.Sequential, layerIdx int) []int {
	r, err := rc.TryRankReport(context.Background(), m, layerIdx)
	if err != nil {
		return nil
	}
	return r
}

// VoteReport implements core.ReportClient over the wire; failures yield a
// nil report.
func (rc *RemoteClient) VoteReport(m *nn.Sequential, layerIdx int, p float64) []bool {
	v, err := rc.TryVoteReport(context.Background(), m, layerIdx, p)
	if err != nil {
		return nil
	}
	return v
}

// ReportAccuracy implements core.AccuracyReporter over the wire; failures
// yield NaN, which MeanReportedAccuracy skips as a dropout.
func (rc *RemoteClient) ReportAccuracy(m *nn.Sequential) float64 {
	a, err := rc.TryReportAccuracy(context.Background(), m)
	if err != nil {
		return math.NaN()
	}
	return a
}

// call runs one logical request through the retry loop: encode once, into
// a pooled buffer every attempt sends from, then up to MaxAttempts HTTP
// attempts with capped exponential backoff between them, each decoded into
// a fresh response value. Retries stop early on context cancellation and
// on permanent (4xx) rejections.
//
// Every logical call is traced as an obs span feeding
// transport_call_seconds — a child of the span context carried by ctx
// (DESIGN.md §16), so a round's tree covers its remote calls. Each HTTP
// attempt is a further child span with a fresh span ID, and that attempt
// span's context rides the request as trace headers: the receiving
// handler links under the exact attempt that reached it, retries
// included. Each attempt counts into transport_attempts_total and its
// request bytes into transport_request_bytes_sent_total (retries — and
// therefore backoff waits — into transport_retries_total),
// per-attempt failures log at debug with client/path/attempt attributes,
// and a call that exhausts its budget counts into
// transport_call_failures_total.
func call[Resp any](rc *RemoteClient, ctx context.Context, path string, kind uint16, req request) (Resp, error) {
	var zero Resp
	return callFrom(rc, ctx, path, kind, req, zero)
}

// callFrom is call with a seeded response value: every attempt decodes
// into a fresh copy of init, which lets a bodyDecoder response carry
// request parameters (votePayload.Rate) into its decode.
func callFrom[Resp any](rc *RemoteClient, ctx context.Context, path string, kind uint16, req request, init Resp) (Resp, error) {
	sp := obs.StartChild(ctx, "transport.call", obs.M.TransportCallSeconds).WithClient(rc.id)
	defer sp.End()
	obs.M.TransportCalls.Inc()
	var zero Resp
	payload := callBody{buf: wire.GetBuffer()}
	defer payload.release()
	payload.buf.B = appendRequest(payload.buf.B, kind, req)
	pol := rc.retry.withDefaults()
	var lastErr error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			obs.M.TransportRetries.Inc()
			if err := sleepCtx(ctx, pol.backoff(attempt-1)); err != nil {
				break
			}
		}
		obs.M.TransportAttempts.Inc()
		obs.M.TransportRequestBytesSent.Add(uint64(len(payload.buf.B)))
		asp := obs.StartChildOf(sp.Context(), "transport.attempt", nil).
			WithClient(rc.id).WithAttempt(attempt + 1)
		resp := init
		err := rc.attempt(ctx, pol, path, &payload, &resp, asp.Context())
		asp.End()
		if err == nil {
			rc.noteErr(nil)
			return resp, nil
		}
		lastErr = err
		obs.L().Debug("transport: attempt failed",
			"client", rc.id, "path", path, "attempt", attempt+1, "of", pol.MaxAttempts, "err", err)
		if permanent(err) || ctx.Err() != nil {
			break
		}
	}
	if lastErr == nil { // context expired before the first attempt
		lastErr = fmt.Errorf("transport: %s: %w", path, ctx.Err())
	}
	obs.M.TransportCallFailures.Inc()
	obs.L().Debug("transport: call failed", "client", rc.id, "path", path, "err", lastErr)
	rc.noteErr(lastErr)
	return zero, lastErr
}

// callBody is the one encoded request of a logical call, which every
// attempt sends from. It sits in a pooled buffer, and http.Transport can
// still be reading an attempt's body after Do has returned (the peer
// answered early, the attempt was cancelled), so each reader handed out
// reports its Close and release recycles the buffer only when none is
// still open; otherwise the buffer is left to the garbage collector.
type callBody struct {
	buf  *wire.Buffer
	open atomic.Int32 // readers handed out and not yet closed
}

// reader returns a fresh reader over the encoded request.
func (b *callBody) reader() io.ReadCloser {
	b.open.Add(1)
	return &callBodyReader{Reader: *bytes.NewReader(b.buf.B), body: b}
}

func (b *callBody) release() {
	if b.open.Load() == 0 {
		b.buf.Release()
	}
}

type callBodyReader struct {
	bytes.Reader
	body   *callBody
	closed atomic.Bool
}

func (r *callBodyReader) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.body.open.Add(-1)
	}
	return nil
}

// attempt performs a single HTTP exchange under the per-attempt timeout.
// sc is the attempt span's context, injected as trace headers so the
// receiving handler joins this attempt's tree.
func (rc *RemoteClient) attempt(ctx context.Context, pol RetryPolicy, path string, payload *callBody, resp any, sc obs.SpanContext) error {
	if pol.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pol.AttemptTimeout)
		defer cancel()
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, rc.baseURL+path, payload.reader())
	if err != nil {
		return fmt.Errorf("transport: %s: %w", path, err)
	}
	// What NewRequest works out for a *bytes.Reader body: the length, so
	// the request is not chunked, and GetBody, so the transport can resend
	// it when a pooled connection turns out to be dead.
	hreq.ContentLength = int64(len(payload.buf.B))
	hreq.GetBody = func() (io.ReadCloser, error) { return payload.reader(), nil }
	hreq.Header.Set("Content-Type", requestContentType)
	obs.InjectHeaders(hreq.Header, sc)
	hresp, err := rc.httpc.Do(hreq)
	if err != nil {
		return fmt.Errorf("transport: %s: %w", path, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 256))
		return &StatusError{Path: path, Code: hresp.StatusCode, Body: string(bytes.TrimSpace(msg))}
	}
	if bd, ok := resp.(bodyDecoder); ok {
		if err := bd.DecodeBody(hresp.Body); err != nil {
			return fmt.Errorf("transport: decode %s: %w", path, err)
		}
		return nil
	}
	if err := gob.NewDecoder(hresp.Body).Decode(resp); err != nil {
		return fmt.Errorf("transport: decode %s: %w", path, err)
	}
	return nil
}

// sleepCtx waits for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
