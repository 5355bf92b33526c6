package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Requests (DESIGN.md §15). Every request a server sends is a wire
// envelope of the endpoint's kind (wire.KindUpdateRequest, KindRankRequest,
// KindVoteRequest) built from the sections below,
// scalars first, then the parameter vector. A handler accepts nothing else.
const (
	// secReqGlobal is the global parameter vector: a uvarint coordinate
	// count followed by the raw little-endian float64 values (the layout of
	// secUpdateDelta).
	secReqGlobal = 1
	// secReqRound is the round number, one zigzag varint.
	secReqRound = 2
	// secReqLayer is the reported layer's index, one zigzag varint.
	secReqLayer = 3
	// secReqRate is the MVP pruning rate, one raw little-endian float64.
	secReqRate = 4
)

// requestContentType marks a versioned request payload.
const requestContentType = "application/x-fedcleanse-request"

// request is any of the three protocol requests; which fields travel
// depends on the kind.
type request struct {
	// Global is the parameter vector. On the handler side it comes from the
	// free list (see release): it is valid only until the handler returns,
	// which is why a participant may not retain the global it is handed.
	Global []float64
	// Model, on the encoding side only, supplies the vector straight from
	// a model's parameters instead of Global, sparing report calls a
	// flattened copy.
	Model *nn.Sequential
	Round int
	Layer int
	Rate  float64

	// decoded marks a Global that decodeRequest drew from the free list;
	// shared, one that a fleet's last verified request holds.
	decoded bool
	shared  *verifiedRequest
}

// release gives back a decoded or shared Global; the request must not be
// used afterwards.
func (q *request) release() {
	switch {
	case q.shared != nil:
		q.shared.release()
	case q.decoded:
		wire.PutFloat64s(q.Global)
	}
	q.decoded, q.shared, q.Global = false, nil, nil
}

// littleEndian reports whether this host lays a float64 out in memory as
// the wire does, so that a vector's memory can be compared with its
// encoding (callBody.encodes).
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// float64Bytes is v's memory, which on a little-endian host is its wire
// encoding.
func float64Bytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// appendRequest appends the envelope of one request. The encoding is
// canonical: a kind always carries the same sections in the same order.
func appendRequest(dst []byte, kind uint16, q request) []byte {
	w := wire.NewWriter(dst, kind)
	switch kind {
	case wire.KindUpdateRequest:
		w.Section(secReqRound)
		w.B = binary.AppendVarint(w.B, int64(q.Round))
	case wire.KindRankRequest, wire.KindVoteRequest:
		w.Section(secReqLayer)
		w.B = binary.AppendVarint(w.B, int64(q.Layer))
	}
	if kind == wire.KindVoteRequest {
		w.Section(secReqRate)
		w.B = binary.LittleEndian.AppendUint64(w.B, math.Float64bits(q.Rate))
	}
	w.Section(secReqGlobal)
	if q.Model == nil {
		w.B = wire.AppendUint(w.B, uint64(len(q.Global)))
		w.B = wire.AppendFloat64s(w.B, q.Global)
	} else {
		w.B = wire.AppendUint(w.B, uint64(q.Model.NumParams()))
		for _, p := range q.Model.Params() {
			w.B = wire.AppendFloat64s(w.B, p.Value.Data)
		}
	}
	return w.Finish()
}

// decodeRequest parses the body of one request to the endpoint serving
// kind: a versioned envelope of exactly that kind. It errors, never panics,
// on anything else. Global is sized from the bytes actually present — a
// count that disagrees with its section's length is rejected before any
// allocation — and decoded into a vector from the free list, which the
// caller gives back with release.
func decodeRequest(data []byte, kind uint16) (request, error) {
	secs, err := wire.DecodeKind(data, kind)
	if err != nil {
		return request{}, err
	}
	var q request
	for _, s := range secs {
		var err error
		switch s.Type {
		case secReqRound:
			q.Round, err = readInt(s.Payload)
		case secReqLayer:
			q.Layer, err = readInt(s.Payload)
		case secReqRate:
			if len(s.Payload) == 8 {
				q.Rate = math.Float64frombits(binary.LittleEndian.Uint64(s.Payload))
			} else {
				err = fmt.Errorf("%d bytes, want 8", len(s.Payload))
			}
		case secReqGlobal:
			if q.decoded {
				err = errors.New("duplicate")
			} else if q.Global, err = decodeGlobal(s.Payload); err == nil {
				q.decoded = true
			}
		}
		if err != nil {
			q.release()
			return request{}, fmt.Errorf("transport: request section %d: %w", s.Type, err)
		}
	}
	if !q.decoded {
		return request{}, errors.New("transport: request envelope has no global section")
	}
	return q, nil
}

// decodeGlobal decodes a count-prefixed float64 vector into one from the
// free list.
func decodeGlobal(p []byte) ([]float64, error) {
	n, rest, err := wire.ReadUint(p)
	if err != nil {
		return nil, err
	}
	if len(rest)%8 != 0 || n != uint64(len(rest)/8) {
		return nil, fmt.Errorf("claims %d values in %d bytes", n, len(rest))
	}
	v := wire.GetFloat64s(int(n))
	if err := wire.Float64sInto(v, rest); err != nil {
		wire.PutFloat64s(v)
		return nil, err
	}
	return v, nil
}

// readInt decodes a section holding exactly one zigzag varint that fits
// an int32.
func readInt(p []byte) (int, error) {
	v, n := binary.Varint(p)
	if n <= 0 || n != len(p) {
		return 0, fmt.Errorf("%w: varint", wire.ErrTruncated)
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("value %d outside int32", v)
	}
	return int(v), nil
}

// readRequest reads and decodes one request body under the handler's body
// cap, through the fleet's last verified request, answering 405 or 400
// itself when it returns !ok. n is the number of body bytes read either
// way. The caller releases the returned request.
func readRequest(w http.ResponseWriter, r *http.Request, maxBody int64, kind uint16, verified *memo[*verifiedRequest]) (q request, n int, ok bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return request{}, 0, false
	}
	buf := wire.GetBuffer()
	err := buf.ReadAll(http.MaxBytesReader(w, r.Body, maxBody), maxBody)
	n = len(buf.B)
	if err == nil {
		q, err = decodeVerified(verified, buf, kind)
	} else {
		buf.Release()
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return request{}, n, false
	}
	return q, n, true
}

// memo holds the last of a kind of refcounted request body — a stub's
// last encoded one (lastRequest), a fleet's last verified one
// (Fleet.last) — and one reference to it.
type memo[T interface {
	comparable
	retain()
	release()
}] struct {
	mu sync.Mutex
	v  T
}

// get returns the entry with a reference the caller releases, or the zero
// T when there is none.
func (m *memo[T]) get() T {
	m.mu.Lock()
	defer m.mu.Unlock()
	var none T
	if m.v != none {
		m.v.retain()
	}
	return m.v
}

// set makes v the entry, taking a reference to it, and lets go of the
// entry it replaces.
func (m *memo[T]) set(v T) {
	v.retain()
	m.mu.Lock()
	old := m.v
	m.v = v
	m.mu.Unlock()
	var none T
	if old != none {
		old.release()
	}
}

// verifiedRequest is one body that decoded — the buffer it was read into,
// not a copy — and its request. Its Global is shared read-only by every
// handler served from it, which is what fl.Participant already requires of
// global, and refcounted: the fleet's last and each such handler hold one
// reference, and the last to let go puts the vector back on the free list
// and the body back in the pool.
type verifiedRequest struct {
	kind uint16
	body *wire.Buffer
	req  request
	refs atomic.Int32
}

func (v *verifiedRequest) retain() { v.refs.Add(1) }

func (v *verifiedRequest) release() {
	if v.refs.Add(-1) == 0 {
		wire.PutFloat64s(v.req.Global)
		v.body.Release()
	}
}

// shared is a handler's request, over v's Global and holding the reference
// the caller took.
func (v *verifiedRequest) shared() request {
	q := v.req
	q.decoded, q.shared = false, v
	return q
}

// decodeVerified is decodeRequest(buf.B, kind) through a fleet's last
// verified request, and takes buf. A body equal to that one byte for byte,
// to the same endpoint, is answered with its request: the CRC and the
// float decode could not come out differently, so neither runs again. Any
// other body is decoded and, if it decodes, becomes the last verified
// request, keeping buf; a body that does not decode is released with the
// error.
func decodeVerified(verified *memo[*verifiedRequest], buf *wire.Buffer, kind uint16) (request, error) {
	if v := verified.get(); v != nil {
		if v.kind == kind && bytes.Equal(v.body.B, buf.B) {
			buf.Release()
			return v.shared(), nil
		}
		v.release()
	}
	q, err := decodeRequest(buf.B, kind)
	if err != nil {
		buf.Release()
		return request{}, err
	}
	v := &verifiedRequest{kind: kind, body: buf, req: q}
	v.refs.Store(1) // the caller's
	verified.set(v)
	return v.shared(), nil
}
