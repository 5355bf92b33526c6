// Package transport runs the federated protocol over real network
// connections: each client is an HTTP server speaking a small binary
// message protocol, and the aggregation server drives rounds through
// RemoteClient stubs. The in-process simulator (internal/fl) and this
// package share all interfaces, so a federation can mix local and remote
// participants; the transport tests verify bit-identical results between
// the two.
//
// The protocol has three endpoints, mirroring what the paper's server asks
// of clients:
//
//	POST /v1/update  — one round of local training; returns the delta
//	POST /v1/ranks   — RAP rank report for a layer
//	POST /v1/votes   — MVP vote report for a layer at a rate
//
// The server guards pruning and AW with its own validation accuracy, so it
// never asks a client for one. There is one wire format (DESIGN.md §15).
// Requests and update responses are versioned wire envelopes
// (request_codec.go, update_codec.go), encoded into and read through
// pooled buffers. Model parameters travel as flat vectors; both sides hold
// the architecture (as in cross-silo FL deployments, where the model
// definition ships with the software). Rank and vote responses are the
// compact tagged payloads of codec.go (varint-delta ranks or, from a
// participant reporting at int8, its int8 activations; bit-packed votes;
// DESIGN.md §14). Anything else — the gob structs binaries before the
// envelope spoke included — is refused: a 400 from a handler, a decode
// error (and so a dropout) at a stub. One handler set serves the endpoints,
// Fleet's (fleet.go); ClientServer is a fleet of one.
//
// Failure model (DESIGN.md §10): every remote call can fail — crashes,
// stragglers, partitions, corrupted responses. RemoteClient never panics;
// each logical call runs a bounded retry loop (per-attempt timeouts,
// capped exponential backoff) under the caller's context, and surfaces
// the final error through the fallible interfaces
// (fl.FallibleParticipant, core.FallibleReportClient) that the round
// drivers use to record a dropout and continue on the surviving quorum. The
// tests' deterministic FaultInjector (fault_test.go) reproduces the failure
// modes through WithTransport and ClientServer.SetMiddleware.
package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// participant is the full client-side surface the transport exposes.
type participant interface {
	fl.Participant
	core.ReportClient
}

// ClientServer exposes one federated participant over HTTP: a Fleet of one
// whose endpoints are mounted at the root (/v1/update, …) instead of under
// /c/<id>, and whose slot carries the model architecture, so requests are
// validated against it and report calls are handed a reconstructed model.
type ClientServer struct {
	fleet *Fleet
	slot  *fleetSlot

	mwMu       sync.Mutex
	middleware func(http.Handler) http.Handler
}

// NewClientServer wraps a participant (an fl.Client or fl.Attacker; both
// implement the defense reporting interfaces) with a private clone of
// template, its Params list built before concurrent handlers read it.
func NewClientServer(part participant, template *nn.Sequential) *ClientServer {
	tmpl := template.Clone()
	tmpl.Params()
	f := NewFleet()
	return &ClientServer{fleet: f, slot: f.add(part, tmpl)}
}

// SetMiddleware installs a handler wrapper applied around the protocol
// handler (tests use it to inject server-side faults). It must be called
// before Serve or Handler.
func (cs *ClientServer) SetMiddleware(mw func(http.Handler) http.Handler) {
	cs.mwMu.Lock()
	defer cs.mwMu.Unlock()
	cs.middleware = mw
}

// Handler returns the protocol handler (with any installed middleware),
// for callers that embed the endpoints into their own server.
func (cs *ClientServer) Handler() http.Handler {
	h := recoverToError(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ep, ok := clientEndpoints[r.URL.Path]; ok {
			cs.fleet.serve(w, r, cs.slot, ep)
		} else {
			http.NotFound(w, r)
		}
	}))
	cs.mwMu.Lock()
	mw := cs.middleware
	cs.mwMu.Unlock()
	if mw != nil {
		return mw(h)
	}
	return h
}

// Serve starts listening on addr and serves until Shutdown, returning the
// bound address (see Fleet.Serve).
func (cs *ClientServer) Serve(addr string) (string, error) {
	return cs.fleet.life.serve(addr, cs.Handler())
}

// Err returns the channel that delivers the terminal serve error (see
// Fleet.Err).
func (cs *ClientServer) Err() <-chan error { return cs.fleet.Err() }

// Shutdown stops the server (see Fleet.Shutdown).
func (cs *ClientServer) Shutdown(ctx context.Context) error { return cs.fleet.Shutdown(ctx) }

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

// lastRequest is the one request body above the stubs, for the same reason:
// a round sends its whole cohort one global and a report collection sends
// every client one model, through a stub per call, so all but the first of
// those calls find their body here (requestBody) instead of encoding it
// again.
var lastRequest memo[*callBody]

// newStubTransport is http.DefaultTransport with its idle pool sized to
// the calls a round driver keeps in flight against one host — a fleet is
// one host, and the streaming window is two per worker — where the
// default of 2 closes and re-dials the surplus connections every round, and
// with connections that take request bodies without a copy buffer
// (bodyConn).
func newStubTransport() *http.Transport {
	t := &http.Transport{}
	if dt, ok := http.DefaultTransport.(*http.Transport); ok {
		t = dt.Clone()
	}
	t.MaxIdleConnsPerHost = max(2*parallel.Workers(), 64)
	t.MaxIdleConns = max(t.MaxIdleConns, t.MaxIdleConnsPerHost)
	dial := t.DialContext
	if dial == nil {
		dial = (&net.Dialer{}).DialContext
	}
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return bodyConn{c}, nil
	}
	return t
}

// bodyConn is a stub-side connection. net/http hands a request body to its
// connection's ReadFrom once the header block has gone out, and a TCP
// connection given a reader it can neither splice nor sendfile copies it
// through a fresh 32 KiB buffer — per request, for a body that already lies
// encoded in one piece in the call's buffer.
type bodyConn struct{ net.Conn }

// ReadFrom implements io.ReaderFrom. A body of ours — a callBodyReader
// under the io.LimitedReader net/http wraps a body of known length in — is
// written to the socket from the buffer it was encoded into; anything else
// is copied through a pooled buffer. Either way the peer gets the same
// bytes, so nothing depends on how a Go version wraps the body.
func (c bodyConn) ReadFrom(r io.Reader) (int64, error) {
	if lr, ok := r.(*io.LimitedReader); ok {
		if br, ok := lr.R.(*callBodyReader); ok && int64(br.Len()) <= lr.N {
			n, err := br.WriteTo(c.Conn)
			lr.N -= n
			return n, err
		}
	}
	buf := wire.GetBuffer()
	defer buf.Release()
	buf.B = slices.Grow(buf.B, 32<<10) // what io.Copy would have allocated
	// Behind a bare io.Writer, or CopyBuffer would come straight back here.
	return io.CopyBuffer(struct{ io.Writer }{c.Conn}, r, buf.B[:cap(buf.B)])
}

// RemoteClient is the server-side stub for a client reachable over HTTP.
// It implements fl.Participant and core.ReportClient, so it drops into
// both federated training and the defense pipeline — and their fallible
// extensions (fl.FallibleParticipant, core.FallibleReportClient), which the
// round drivers prefer: a failed call becomes a recorded dropout, never a
// panic.
type RemoteClient struct {
	id      int
	baseURL string
	httpc   *http.Client
	retry   RetryPolicy

	errMu   sync.Mutex
	lastErr error
}

var (
	_ fl.Participant            = (*RemoteClient)(nil)
	_ fl.FallibleParticipant    = (*RemoteClient)(nil)
	_ core.ReportClient         = (*RemoteClient)(nil)
	_ core.FallibleReportClient = (*RemoteClient)(nil)
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
// response is a KindUpdate envelope (update_codec.go), read under a cap
// sized to a delta as long as global.
func (rc *RemoteClient) TryLocalUpdate(ctx context.Context, global []float64, round int) ([]float64, error) {
	resp, err := call(rc, ctx, "/v1/update", wire.KindUpdateRequest, request{Global: global, Round: round},
		updatePayload{Limit: envelopeLimit(len(global))})
	return resp.Delta, err
}

// TryRankReport implements core.FallibleReportClient over the wire: the
// response is the participant's RanksDelta, at either report precision.
func (rc *RemoteClient) TryRankReport(ctx context.Context, m *nn.Sequential, layerIdx int) ([]int, error) {
	resp, err := call(rc, ctx, "/v1/ranks", wire.KindRankRequest, request{Model: m, Layer: layerIdx}, rankPayload{})
	return resp.Ranks, err
}

// TryVoteReport implements core.FallibleReportClient over the wire: the
// response is the participant's VoteBitmap.
func (rc *RemoteClient) TryVoteReport(ctx context.Context, m *nn.Sequential, layerIdx int, p float64) ([]bool, error) {
	resp, err := call(rc, ctx, "/v1/votes", wire.KindVoteRequest, request{Model: m, Layer: layerIdx, Rate: p}, votePayload{})
	return resp.Votes, err
}

// maxReportBody bounds a report response body read; the largest
// legitimate payload (RanksDelta at maxReportLen units, at most five bytes
// a rank) stays far below it.
const maxReportBody = 1 << 28

// bodyDecoder is a response type, which owns its wire decoding; decode
// failures inside an attempt retry like any other attempt failure.
type bodyDecoder interface {
	DecodeBody(r io.Reader) error
}

// decodeReport gathers one tagged report body in a pooled buffer, hands it
// (never empty) to decode — every decoder copies — and counts the bytes of
// a report that decoded.
func decodeReport(r io.Reader, decode func(b []byte) error) error {
	buf, err := readBody(r, maxReportBody)
	if err != nil {
		return fmt.Errorf("transport: read report body: %w", err)
	}
	defer buf.Release()
	if len(buf.B) == 0 {
		return errors.New("transport: empty report")
	}
	if err := decode(buf.B); err != nil {
		return err
	}
	obs.M.TransportReportBytesRecv.Add(uint64(len(buf.B)))
	return nil
}

// rankPayload decodes a /v1/ranks response: a RanksDelta.
type rankPayload struct {
	Ranks []int
}

// DecodeBody implements bodyDecoder.
func (rp *rankPayload) DecodeBody(r io.Reader) error {
	return decodeReport(r, func(b []byte) (err error) {
		rp.Ranks, err = DecodeRanksDelta(b)
		return err
	})
}

// votePayload decodes a /v1/votes response: a VoteBitmap.
type votePayload struct {
	Votes []bool
}

// DecodeBody implements bodyDecoder.
func (vp *votePayload) DecodeBody(r io.Reader) error {
	return decodeReport(r, func(b []byte) (err error) {
		vp.Votes, err = DecodeVoteBitmap(b)
		return err
	})
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

// call runs one logical request through the retry loop: one encoded body
// every attempt sends from (requestBody: the body of the last request with
// the same content, or a fresh encode), then up to MaxAttempts HTTP
// attempts with capped exponential backoff between them, each decoded into
// a fresh copy of init — which lets a response carry request parameters
// (updatePayload.Limit) into its decode. Retries stop early on context
// cancellation and on permanent (4xx) rejections.
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
func call[Resp any, P interface {
	*Resp
	bodyDecoder
}](rc *RemoteClient, ctx context.Context, path string, kind uint16, req request, init Resp) (Resp, error) {
	sp := obs.StartChild(ctx, "transport.call", obs.M.TransportCallSeconds).WithClient(rc.id)
	defer sp.End()
	obs.M.TransportCalls.Inc()
	var zero Resp
	payload := requestBody(kind, req)
	defer payload.release()
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
		err := rc.attempt(ctx, pol, path, payload, P(&resp), asp.Context())
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

// callBody is one encoded request in a pooled buffer, which every attempt
// of every call it serves sends from. Its bytes never change once encoded,
// and it is refcounted: lastRequest, each call using it and each reader
// handed to net/http — which can still be reading an attempt's body after
// Do has returned (the peer answered early, the attempt was cancelled) —
// hold one reference, and whoever lets go of the last one recycles the
// buffer.
type callBody struct {
	buf  *wire.Buffer
	refs atomic.Int32

	// What it was encoded from, for encodes: the kind, the scalars and the
	// raw float64 section, the tail of buf.B ahead of the CRC.
	key    requestKey
	floats []byte
}

// requestKey is a request's kind and scalars.
type requestKey struct {
	kind         uint16
	round, layer int
	rate         uint64
}

func keyOf(kind uint16, q request) requestKey {
	return requestKey{kind, q.Round, q.Layer, math.Float64bits(q.Rate)}
}

// newCallBody wraps an encoded request; the caller holds its one reference.
func newCallBody(buf *wire.Buffer) *callBody {
	b := &callBody{buf: buf}
	b.refs.Store(1)
	return b
}

// requestBody returns the body of request q to the endpoint of kind,
// holding a reference the caller releases. That is lastRequest's body when
// it encodes the same request, checked by content — the round's global is
// a free-list vector whose array holds another round's parameters next
// time, and the defense prunes its model between collections, so neither
// identity nor a version says what a vector holds now. Otherwise the
// request is encoded afresh and becomes lastRequest. A big-endian host,
// whose float64s do not lie in memory as they travel, encodes every call.
func requestBody(kind uint16, q request) *callBody {
	if !littleEndian {
		return encodeBody(kind, q)
	}
	if b := lastRequest.get(); b != nil {
		if b.encodes(kind, q) {
			return b
		}
		b.release()
	}
	b := encodeBody(kind, q)
	lastRequest.set(b)
	return b
}

// encodeBody encodes q into a fresh body.
func encodeBody(kind uint16, q request) *callBody {
	buf := wire.GetBuffer()
	buf.B = appendRequest(buf.B, kind, q)
	b := newCallBody(buf)
	b.key = keyOf(kind, q)
	n := len(q.Global)
	if q.Model != nil {
		n = q.Model.NumParams()
	}
	end := len(buf.B) - crcLen
	b.floats = buf.B[end-8*n : end]
	return b
}

// crcLen is the envelope's closing CRC32.
const crcLen = 4

// encodes reports whether b is the encoding of q: the same kind and
// scalars and, byte for byte, the same float64s — exact for NaN payloads
// and signed zeros. Every other byte of an envelope follows from those.
func (b *callBody) encodes(kind uint16, q request) bool {
	if b.key != keyOf(kind, q) {
		return false
	}
	if q.Model == nil {
		return bytes.Equal(b.floats, float64Bytes(q.Global))
	}
	rest := b.floats
	for _, p := range q.Model.Params() {
		v := float64Bytes(p.Value.Data)
		if len(v) > len(rest) || !bytes.Equal(rest[:len(v)], v) {
			return false
		}
		rest = rest[len(v):]
	}
	return len(rest) == 0
}

// reader returns a fresh reader over the encoded request, holding a
// reference until it is closed.
func (b *callBody) reader() io.ReadCloser {
	b.retain()
	return &callBodyReader{Reader: *bytes.NewReader(b.buf.B), body: b}
}

func (b *callBody) retain() { b.refs.Add(1) }

// release lets go of one reference; the last recycles the buffer.
func (b *callBody) release() {
	if b.refs.Add(-1) == 0 {
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
		r.body.release()
	}
	return nil
}

// attempt performs a single HTTP exchange under the per-attempt timeout.
// sc is the attempt span's context, injected as trace headers so the
// receiving handler joins this attempt's tree.
func (rc *RemoteClient) attempt(ctx context.Context, pol RetryPolicy, path string, payload *callBody, resp bodyDecoder, sc obs.SpanContext) error {
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
	if err := resp.DecodeBody(hresp.Body); err != nil {
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
