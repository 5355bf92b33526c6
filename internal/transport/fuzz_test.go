package transport

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Fuzz targets for the request decoder behind the three protocol endpoints.
// The invariant under fuzzing: an arbitrary request body either decodes
// into a well-formed request (HTTP 200) or is rejected with HTTP 400 — the
// handler never panics and never returns any other status. The legacy gob
// requests stay in the seeds as hostile input. Seed corpora live in
// testdata/fuzz/.

// stubFuzzParticipant answers instantly so fuzzing measures the decoder
// and validators, not model training.
type stubFuzzParticipant struct{ units int }

func (stubFuzzParticipant) ID() int { return 0 }
func (stubFuzzParticipant) LocalUpdate(global []float64, _ int) []float64 {
	return make([]float64, len(global))
}
func (s stubFuzzParticipant) RankReport(*nn.Sequential, int) []int {
	ranks := make([]int, s.units)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}
func (s stubFuzzParticipant) VoteReport(*nn.Sequential, int, float64) []bool {
	return make([]bool, s.units)
}

// fuzzHandler builds a small ClientServer and returns its handler plus the
// template parameter count (for crafting valid and invalid bodies).
func fuzzHandler() (http.Handler, int) {
	cs, n := fuzzClientServer()
	return cs.Handler(), n
}

// fuzzClientServer is fuzzHandler's ClientServer, for tests that look at
// its fleet's last verified request.
func fuzzClientServer() (*ClientServer, int) {
	rng := rand.New(rand.NewSource(7))
	d := tensor.ConvDims{C: 1, H: 4, W: 4, K: 3, Stride: 1, Pad: 1}
	template := nn.NewSequential(
		nn.NewConv2D("conv", d, 4, rng),
		nn.NewReLU("relu"),
		nn.NewFlatten("flatten"),
		nn.NewDense("fc", 4*16, 3, rng),
	)
	return NewClientServer(stubFuzzParticipant{units: 4}, template), template.NumParams()
}

// envelopeSeeds are the versioned-envelope seeds of one endpoint: the
// request RemoteClient would send, then the ways a peer can get it wrong —
// a flipped CRC, another endpoint's kind, a count that disagrees with the
// vector's length, a wrong-sized vector, a NaN rate, a bad layer, and a
// body past the handler's cap.
func envelopeSeeds(kind uint16, n int) [][]byte {
	global := make([]float64, n)
	valid := appendRequest(nil, kind, request{Global: global, Round: 1, Rate: 0.5})
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0x01
	wrongKind := wire.KindRankRequest
	if kind == wire.KindRankRequest {
		wrongKind = wire.KindVoteRequest
	}
	countLies := wire.NewEncoder(kind).
		Section(secReqGlobal, wire.AppendFloat64s(wire.AppendUint(nil, uint64(n)+1), global)).Bytes()
	oversized := append(append([]byte(nil), valid...), make([]byte, 17*n+1<<16)...)
	return [][]byte{
		valid,
		valid[:len(valid)/2],
		badCRC,
		appendRequest(nil, wrongKind, request{Global: global}),
		countLies,
		appendRequest(nil, kind, request{Global: global[:3]}),
		appendRequest(nil, kind, request{Global: global, Rate: math.NaN()}),
		appendRequest(nil, kind, request{Global: global, Layer: 99, Rate: 0.5}),
		oversized,
	}
}

// fuzzEndpoint drives one endpoint with the fuzzed body and checks the
// status invariant, with the fleet's last verified request as an oracle:
// the handler serves the endpoint's valid envelope seed first, so the body
// meets a verified request it may equal or nearly equal, and its status
// and response bytes must be a freshly built handler's.
func fuzzEndpoint(f *testing.F, path string, kind uint16, seeds [][]byte) {
	h, n := fuzzHandler()
	valid := envelopeSeeds(kind, n)[0]
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if rec := serveBody(h, path, valid); rec.Code != http.StatusOK {
			t.Fatalf("%s: valid seed drew HTTP %d (%s)", path, rec.Code, rec.Body.Bytes())
		}
		rec := serveBody(h, path, body)
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("%s returned %d for body %q, want 200 or 400", path, rec.Code, body)
		}
		fresh, _ := fuzzHandler()
		want := serveBody(fresh, path, body)
		if rec.Code != want.Code || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s: HTTP %d %q after the valid seed, a fresh handler HTTP %d %q",
				path, rec.Code, rec.Body.Bytes(), want.Code, want.Body.Bytes())
		}
	})
}

func FuzzHandleUpdate(f *testing.F) {
	_, n := fuzzHandler()
	valid := gobBody(f, UpdateRequest{Global: make([]float64, n), Round: 1})
	fuzzEndpoint(f, "/v1/update", wire.KindUpdateRequest, append([][]byte{
		valid,
		valid[:len(valid)/2],
		{},
		[]byte("not gob at all"),
		gobBody(f, UpdateRequest{Global: []float64{1, 2, 3}}), // wrong length
	}, envelopeSeeds(wire.KindUpdateRequest, n)...))
}

func FuzzHandleRanks(f *testing.F) {
	_, n := fuzzHandler()
	valid := gobBody(f, RankRequest{Global: make([]float64, n), Layer: 0})
	fuzzEndpoint(f, "/v1/ranks", wire.KindRankRequest, append([][]byte{
		valid,
		valid[:len(valid)/2],
		{},
		[]byte("\x00\xff garbage"),
		gobBody(f, RankRequest{Global: make([]float64, n), Layer: 99}), // bad layer
	}, envelopeSeeds(wire.KindRankRequest, n)...))
}

func FuzzHandleVotes(f *testing.F) {
	_, n := fuzzHandler()
	valid := gobBody(f, VoteRequest{Global: make([]float64, n), Layer: 0, Rate: 0.5})
	fuzzEndpoint(f, "/v1/votes", wire.KindVoteRequest, append([][]byte{
		valid,
		valid[:len(valid)/2],
		{},
		gobBody(f, VoteRequest{Global: make([]float64, n), Rate: math.NaN()}),
		gobBody(f, VoteRequest{Global: make([]float64, n), Rate: -3}),
	}, envelopeSeeds(wire.KindVoteRequest, n)...))
}

// TestEnvelopeSeedStatuses pins what the envelope seeds above mean outside
// a fuzzing run: the well-formed request is served, every malformed one is
// a 400 — including the fields only some endpoints read.
func TestEnvelopeSeedStatuses(t *testing.T) {
	h, n := fuzzHandler()
	for path, kind := range map[string]uint16{
		"/v1/update": wire.KindUpdateRequest,
		"/v1/ranks":  wire.KindRankRequest,
		"/v1/votes":  wire.KindVoteRequest,
	} {
		reads := func(kinds ...uint16) int {
			for _, k := range kinds {
				if k == kind {
					return http.StatusBadRequest
				}
			}
			return http.StatusOK
		}
		want := []int{
			http.StatusOK,                                     // valid
			http.StatusBadRequest,                             // truncated
			http.StatusBadRequest,                             // bad CRC
			http.StatusBadRequest,                             // wrong kind
			http.StatusBadRequest,                             // count ≠ length
			http.StatusBadRequest,                             // wrong-sized vector
			reads(wire.KindVoteRequest),                       // NaN rate
			reads(wire.KindRankRequest, wire.KindVoteRequest), // bad layer
			http.StatusBadRequest,                             // oversized
		}
		for i, body := range envelopeSeeds(kind, n) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != want[i] {
				t.Errorf("%s seed %d: HTTP %d, want %d (%s)", path, i, rec.Code, want[i], bytes.TrimSpace(rec.Body.Bytes()))
			}
		}
	}
}
