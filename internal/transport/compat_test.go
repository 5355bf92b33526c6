package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// The cross-version compatibility corpus (testdata/wire): one golden file
// per encoding a deployed peer has ever sent — legacy gob responses, compact
// v1 report payloads, versioned envelopes. The files of the current
// encodings are regenerated from fixed seeds with -update and then pinned;
// the legacy gob files and the retired Acts8 report are frozen bytes nothing
// in the tree can write any more. The table test below decodes every file
// through the decoders the current binary actually uses (updatePayload,
// rankPayload, votePayload, decodeRequest) and asserts bit-identity with the
// seeded value — so a wire change that silently breaks a peer fails CI
// instead of a rollout — and asserts that the frozen files, four wire
// responses no peer sends any more, are refused with an error.

var updateGolden = flag.Bool("update", false, "regenerate the testdata/wire golden corpus")

const goldenDir = "testdata/wire"

// compatDelta is the corpus's fixed update delta, salted with the IEEE
// specials a lossless float codec must carry through.
func compatDelta() []float64 {
	rng := rand.New(rand.NewSource(92))
	d := make([]float64, 256)
	for i := range d {
		d[i] = 2*rng.Float64() - 1
	}
	d[3] = math.NaN()
	d[17] = math.Inf(1)
	d[51] = math.Inf(-1)
	d[200] = math.Copysign(0, -1)
	return d
}

func compatRanks() []int {
	return rand.New(rand.NewSource(93)).Perm(64)
}

func compatVotes() []bool {
	v := make([]bool, 64)
	for i := range v {
		v[i] = i%3 == 0
	}
	return v
}

// acts8Golden is the retired int8 activation report (tag 0x03: a uvarint
// unit count, scale and zero as float64 LE, then a code a unit), 64 units,
// as an int8 participant answered /v1/ranks before a rank report became
// ranks at every precision.
const acts8Golden = "report-acts8-compact-v1.bin"

// goldenFiles materializes every regenerable corpus entry from the fixed
// seeds; the three legacy gob files and acts8Golden exist only on disk.
func goldenFiles() map[string][]byte {
	files := map[string][]byte{}
	files["update-versioned-v1.bin"] = AppendVersionedUpdate(nil, compatDelta())
	files["report-ranks-compact-v1.bin"] = AppendRanksDelta(nil, compatRanks())
	files["report-votes-compact-v1.bin"] = AppendVoteBitmap(nil, compatVotes())

	for name, kind := range compatRequestKinds {
		files[name] = appendRequest(nil, kind, compatRequest())
	}
	return files
}

// compatRequestKinds maps the corpus's request files to their kinds.
var compatRequestKinds = map[string]uint16{
	"request-update-v1.bin": wire.KindUpdateRequest,
	"request-ranks-v1.bin":  wire.KindRankRequest,
	"request-votes-v1.bin":  wire.KindVoteRequest,
}

// compatRequest is the corpus's fixed request: every kind ships the delta
// vector as its global, IEEE specials included.
func compatRequest() request {
	return request{Global: compatDelta(), Round: 7, Layer: 2, Rate: 0.25}
}

// loadGolden reads one corpus file, regenerating it first under -update
// if it is one goldenFiles can write.
func loadGolden(t *testing.T, files map[string][]byte, name string) []byte {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if *updateGolden && files[name] != nil {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, files[name], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file %s missing (regenerate with -update): %v", name, err)
	}
	return data
}

// sameBits compares float slices bit for bit, so NaN payloads and signed
// zeros count as themselves.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCrossVersionGoldenCorpus decodes every golden payload through the
// current decoders and pins the result against the seeded values. The
// legacy files are frozen bytes from the pre-envelope wire format; if this
// test fails after a serialization change, the change broke compatibility
// with deployed peers and files — fix the change, do not regenerate the
// files.
func TestCrossVersionGoldenCorpus(t *testing.T) {
	files := goldenFiles()

	t.Run("first-byte", func(t *testing.T) {
		// What tells the families apart: the envelope magic, a report tag
		// (live, or retired: 0x03 Acts8, 0x04 its float64 twin), or — for
		// gob — the length of a type descriptor, which is none of these.
		for name, want := range map[string]byte{
			"update-versioned-v1.bin":     wire.Magic[0],
			"report-ranks-compact-v1.bin": TagRanksDelta,
			"report-votes-compact-v1.bin": TagVoteBitmap,
			acts8Golden:                   0x03,
		} {
			if got := loadGolden(t, files, name)[0]; got != want {
				t.Errorf("%s opens with 0x%02x, want 0x%02x", name, got, want)
			}
		}
		for _, name := range []string{"update-legacy-gob.bin",
			"report-ranks-legacy-gob.bin", "report-votes-legacy-gob.bin"} {
			if got := loadGolden(t, files, name)[0]; got == wire.Magic[0] || got <= 0x04 {
				t.Errorf("%s opens with 0x%02x, colliding with the envelope magic or a report tag", name, got)
			}
		}
	})

	t.Run("legacy-gob-refused", func(t *testing.T) {
		// Every gob wire response is refused by every response decoder — an
		// error, which a round records as a dropout; never a misparse.
		for _, name := range []string{"update-legacy-gob.bin",
			"report-ranks-legacy-gob.bin", "report-votes-legacy-gob.bin"} {
			data := loadGolden(t, files, name)
			for what, dec := range map[string]bodyDecoder{
				"update": &updatePayload{Limit: 1 << 20},
				"ranks":  &rankPayload{},
				"votes":  &votePayload{},
			} {
				if err := dec.DecodeBody(bytes.NewReader(data)); err == nil {
					t.Errorf("%s accepted as a %s response", name, what)
				}
			}
		}
	})

	t.Run("golden-stable", func(t *testing.T) {
		// The versioned and compact encoders are canonical: re-encoding the
		// fixed seeds must reproduce the checked-in bytes exactly. (The gob
		// legacy files are pinned but not re-derived — gob's type-descriptor
		// layout belongs to the Go release that wrote them.)
		for _, name := range []string{
			"update-versioned-v1.bin",
			"report-ranks-compact-v1.bin", "report-votes-compact-v1.bin",
		} {
			if !bytes.Equal(loadGolden(t, files, name), files[name]) {
				t.Errorf("%s: checked-in bytes differ from canonical re-encoding", name)
			}
		}
	})

	t.Run("updates", func(t *testing.T) {
		want := compatDelta()
		for _, name := range []string{"update-versioned-v1.bin"} {
			up := updatePayload{Limit: 1 << 20}
			if err := up.DecodeBody(bytes.NewReader(loadGolden(t, files, name))); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameBits(up.Delta, want) {
				t.Fatalf("%s: delta differs from the seeded vector", name)
			}
		}
	})

	t.Run("ranks", func(t *testing.T) {
		want := compatRanks()
		for _, name := range []string{"report-ranks-compact-v1.bin"} {
			var rp rankPayload
			if err := rp.DecodeBody(bytes.NewReader(loadGolden(t, files, name))); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameIntSlices(rp.Ranks, want) {
				t.Fatalf("%s: ranks %v, want %v", name, rp.Ranks, want)
			}
		}
		direct, err := DecodeRanksDelta(loadGolden(t, files, "report-ranks-compact-v1.bin"))
		if err != nil || !sameIntSlices(direct, want) {
			t.Fatalf("DecodeRanksDelta: %v, %v", direct, err)
		}
	})

	t.Run("votes", func(t *testing.T) {
		want := compatVotes()
		for _, name := range []string{"report-votes-compact-v1.bin"} {
			var vp votePayload
			if err := vp.DecodeBody(bytes.NewReader(loadGolden(t, files, name))); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(vp.Votes) != len(want) {
				t.Fatalf("%s: %d votes, want %d", name, len(vp.Votes), len(want))
			}
			for i := range want {
				if vp.Votes[i] != want[i] {
					t.Fatalf("%s: vote %d = %v, want %v", name, i, vp.Votes[i], want[i])
				}
			}
		}
	})

	t.Run("acts8", func(t *testing.T) {
		// The retired int8 activation report is refused by both report
		// decoders — an error, which a collection records as a dropout;
		// never a misparse.
		data := loadGolden(t, files, acts8Golden)
		if len(data) != 1+1+16+64 {
			t.Fatalf("%s is %d bytes, want the 82 of a 64-unit Acts8 report", acts8Golden, len(data))
		}
		for what, dec := range map[string]bodyDecoder{
			"ranks": &rankPayload{},
			"votes": &votePayload{},
		} {
			if err := dec.DecodeBody(bytes.NewReader(data)); err == nil {
				t.Errorf("%s accepted as a %s response", acts8Golden, what)
			}
		}
	})
}

// TestActs8PeerIsADropout: a peer that answers /v1/ranks with the retired
// Acts8 bytes is one of GlobalPruneOrderDetail's Dropped, and the rest of
// the cohort's prune order is exactly the order without that peer.
func TestActs8PeerIsADropout(t *testing.T) {
	// The peer answers as an int8 participant built before a rank report
	// became ranks did.
	acts8 := loadGolden(t, goldenFiles(), acts8Golden)
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", reportContentType)
		_, _ = w.Write(acts8)
	}))
	defer old.Close()
	_, addr, shutdown := startFleet(t, 4, 78)
	defer shutdown()

	policy := WithRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	var rest []core.ReportClient
	for id := 0; id < 4; id++ {
		rest = append(rest, NewRemoteClient(id, FleetClientAddr(addr, id), policy))
	}
	const oldID = 2
	cohort := slices.Insert(slices.Clone(rest), oldID, core.ReportClient(NewRemoteClient(oldID, old.Listener.Addr().String(), policy)))

	m := fleetTemplate()
	cfg := core.PipelineConfig{Method: core.RAP}
	got := core.GlobalPruneOrderDetail(m, cohort, 0, cfg)
	if !slices.Equal(got.Dropped, []int{oldID}) {
		t.Fatalf("dropped %v, want [%d]", got.Dropped, oldID)
	}
	want := core.GlobalPruneOrderDetail(m, rest, 0, cfg)
	if len(want.Dropped) != 0 || !slices.Equal(got.Order, want.Order) {
		t.Fatalf("order with the Acts8 peer %v, without it %v (dropped %v)", got.Order, want.Order, want.Dropped)
	}
}

// TestVersionedUpdateRoundTrip pins the codec itself: bit-exact floats,
// nil preservation, and error (never panic) on malformed envelopes.
func TestVersionedUpdateRoundTrip(t *testing.T) {
	want := compatDelta()
	got, err := DecodeVersionedUpdate(AppendVersionedUpdate(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, want) {
		t.Fatal("delta does not round-trip bit-exactly")
	}
	if got, err := DecodeVersionedUpdate(AppendVersionedUpdate(nil, nil)); err != nil || got != nil {
		t.Fatalf("nil delta round-tripped to %v, %v", got, err)
	}
}

func TestVersionedUpdateRejections(t *testing.T) {
	valid := AppendVersionedUpdate(nil, []float64{1, 2, 3})
	cases := map[string][]byte{
		"empty":       {},
		"wrong-magic": append([]byte{0xAB}, valid[1:]...),
		"truncated":   valid[:len(valid)-6],
		"wrong-kind":  wire.NewEncoder(1).Bytes(),
		"no-delta":    wire.NewEncoder(wire.KindUpdate).Section(99, []byte{1}).Bytes(),
		"count-lies": wire.NewEncoder(wire.KindUpdate).
			Section(secUpdateDelta, wire.AppendUint(nil, 1<<40)).Bytes(),
		"short-floats": wire.NewEncoder(wire.KindUpdate).
			Section(secUpdateDelta, wire.AppendFloat64s(wire.AppendUint(nil, 3), []float64{1, 2})).Bytes(),
	}
	for name, data := range cases {
		if _, err := DecodeVersionedUpdate(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Unknown sections are skipped, not fatal: forward compatibility.
	fwd := wire.NewEncoder(wire.KindUpdate).
		Section(77, []byte("future")).
		Section(secUpdateDelta, wire.AppendFloat64s(wire.AppendUint(nil, 1), []float64{4.5})).
		Bytes()
	got, err := DecodeVersionedUpdate(fwd)
	if err != nil || len(got) != 1 || got[0] != 4.5 {
		t.Fatalf("unknown section not skipped: %v, %v", got, err)
	}
}

// TestVersionedUpdateOverWire: a participant served over the wire hands a
// RemoteClient the delta it computes in process, bit for bit.
func TestVersionedUpdateOverWire(t *testing.T) {
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 8, W: 8}, 4, rand.New(rand.NewSource(95)))
	global := template.ParamsVector()
	addr, stop := serveOne(&fl.SyntheticClient{Id: 0, Seed: 96}, template, nil)
	defer stop()
	got, err := NewRemoteClient(0, addr).TryLocalUpdate(context.Background(), global, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := (&fl.SyntheticClient{Id: 0, Seed: 96}).LocalUpdate(global, 3)
	if !sameBits(got, want) {
		t.Fatal("versioned update differs from the in-process delta")
	}
}

// TestRequestGoldenCorpus pins the three request envelopes the way
// TestCrossVersionGoldenCorpus pins the response side: the checked-in
// bytes open with the envelope magic, equal the canonical re-encoding of the fixed
// seeds, and decode on their endpoint to exactly the fields that went in —
// and on no other endpoint.
func TestRequestGoldenCorpus(t *testing.T) {
	files := goldenFiles()
	for name, kind := range compatRequestKinds {
		data := loadGolden(t, files, name)
		if !bytes.HasPrefix(data, wire.Magic[:]) {
			t.Errorf("%s does not open with the envelope magic", name)
		}
		if !bytes.Equal(data, files[name]) {
			t.Errorf("%s: checked-in bytes differ from canonical re-encoding", name)
		}
		got, err := decodeRequest(data, kind)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := compatRequest()
		if !sameBits(got.Global, want.Global) {
			t.Errorf("%s: global differs from the seeded vector", name)
		}
		if kind == wire.KindUpdateRequest && got.Round != want.Round {
			t.Errorf("%s: round %d, want %d", name, got.Round, want.Round)
		}
		if (kind == wire.KindRankRequest || kind == wire.KindVoteRequest) && got.Layer != want.Layer {
			t.Errorf("%s: layer %d, want %d", name, got.Layer, want.Layer)
		}
		if kind == wire.KindVoteRequest && got.Rate != want.Rate {
			t.Errorf("%s: rate %g, want %g", name, got.Rate, want.Rate)
		}
		got.release()
		for other, otherKind := range compatRequestKinds {
			if otherKind == kind {
				continue
			}
			if _, err := decodeRequest(data, otherKind); err == nil {
				t.Errorf("%s accepted on the endpoint of %s", name, other)
			}
		}
		// RemoteClient encodes report requests straight from the model:
		// the bytes are those of its parameter vector.
		m := nn.NewSmallCNN(nn.Input{C: 1, H: 8, W: 8}, 4, rand.New(rand.NewSource(91)))
		fromModel := request{Model: m, Round: 7, Layer: 2, Rate: 0.25}
		fromGlobal := request{Global: m.ParamsVector(), Round: 7, Layer: 2, Rate: 0.25}
		if !bytes.Equal(appendRequest(nil, kind, fromModel), appendRequest(nil, kind, fromGlobal)) {
			t.Errorf("%s: a request encoded from a model differs from one encoded from its parameters", name)
		}
	}
}

// TestRequestRejections: malformed request envelopes error, never panic,
// and unknown sections are skipped.
func TestRequestRejections(t *testing.T) {
	global := wire.AppendFloat64s(wire.AppendUint(nil, 2), []float64{1, 2})
	env := func(secs ...wire.Section) []byte {
		e := wire.NewEncoder(wire.KindVoteRequest)
		for _, s := range secs {
			e.Section(s.Type, s.Payload)
		}
		return e.Bytes()
	}
	valid := env(wire.Section{Type: secReqGlobal, Payload: global})
	cases := map[string][]byte{
		"empty":        {},
		"report-tag":   {TagRanksDelta, 0},
		"bad-crc":      append(append([]byte(nil), valid[:len(valid)-1]...), valid[len(valid)-1]^1),
		"truncated":    valid[:len(valid)-6],
		"no-global":    env(wire.Section{Type: secReqLayer, Payload: []byte{2}}),
		"two-globals":  env(wire.Section{Type: secReqGlobal, Payload: global}, wire.Section{Type: secReqGlobal, Payload: global}),
		"count-lies":   env(wire.Section{Type: secReqGlobal, Payload: wire.AppendUint(nil, 1<<40)}),
		"count-short":  env(wire.Section{Type: secReqGlobal, Payload: wire.AppendFloat64s(wire.AppendUint(nil, 3), []float64{1, 2})}),
		"ragged-float": env(wire.Section{Type: secReqGlobal, Payload: append(append([]byte(nil), global...), 0)}),
		"short-rate":   env(wire.Section{Type: secReqRate, Payload: []byte{1, 2, 3}}, wire.Section{Type: secReqGlobal, Payload: global}),
		"layer-slack":  env(wire.Section{Type: secReqLayer, Payload: []byte{2, 0}}, wire.Section{Type: secReqGlobal, Payload: global}),
		"layer-huge":   env(wire.Section{Type: secReqLayer, Payload: binary.AppendVarint(nil, 1<<40)}, wire.Section{Type: secReqGlobal, Payload: global}),
	}
	for name, data := range cases {
		if _, err := decodeRequest(data, wire.KindVoteRequest); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	fwd := env(wire.Section{Type: 77, Payload: []byte("future")}, wire.Section{Type: secReqGlobal, Payload: global})
	got, err := decodeRequest(fwd, wire.KindVoteRequest)
	if err != nil || len(got.Global) != 2 || got.Global[1] != 2 {
		t.Fatalf("unknown section not skipped: %v, %v", got.Global, err)
	}
	got.release()

	// The body cap of a slot with a template is the envelope's size for that
	// architecture: a request padded (by a section the handler skips) to
	// exactly 8 x params + slack is served, one byte more is a 400.
	h, n := fuzzHandler()
	params := wire.AppendFloat64s(wire.AppendUint(nil, uint64(n)), make([]float64, n))
	padded := func(size int) []byte {
		bare := wire.NewEncoder(wire.KindRankRequest).Section(77, nil).Section(secReqGlobal, params).Bytes()
		return wire.NewEncoder(wire.KindRankRequest).Section(77, make([]byte, size-len(bare))).Section(secReqGlobal, params).Bytes()
	}
	limit := int(envelopeLimit(n))
	for size, want := range map[int]int{limit: http.StatusOK, limit + 1: http.StatusBadRequest} {
		if rec := serveBody(h, "/v1/ranks", padded(size)); rec.Code != want {
			t.Errorf("%d-byte request: HTTP %d, want %d (%s)", size, rec.Code, want, bytes.TrimSpace(rec.Body.Bytes()))
		}
	}
}

// TestRequestEncodingsAgree pins that there is one request format. The
// gob request an aggregator older than the envelope sends draws 400 —
// never 200, never a panic — from a fleet slot with a model architecture
// and from one without, on every endpoint, and the envelope request
// RemoteClient sends is served by both.
func TestRequestEncodingsAgree(t *testing.T) {
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 8, W: 8}, 4, rand.New(rand.NewSource(95)))
	global := template.ParamsVector()
	layer := template.LastConvIndex()

	fleet := NewFleet()
	fleet.AddWithModel(&fl.SyntheticClient{Id: 3, Seed: 96, Units: 16}, template)
	fleet.Add(&fl.SyntheticClient{Id: 4, Seed: 96, Units: 16})
	served := func(path string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		fleet.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}

	endpoints := []struct {
		path     string
		legacy   []byte
		envelope []byte
	}{
		{"/v1/update", gobBody(t, UpdateRequest{Global: global, Round: 3}),
			appendRequest(nil, wire.KindUpdateRequest, request{Global: global, Round: 3})},
		{"/v1/ranks", gobBody(t, RankRequest{Global: global, Layer: layer}),
			appendRequest(nil, wire.KindRankRequest, request{Model: template, Layer: layer})},
		{"/v1/votes", gobBody(t, VoteRequest{Global: global, Layer: layer, Rate: 0.5}),
			appendRequest(nil, wire.KindVoteRequest, request{Model: template, Layer: layer, Rate: 0.5})},
	}
	for _, ep := range endpoints {
		for _, prefix := range []string{"/c/3", "/c/4"} {
			if code, _ := served(prefix+ep.path, ep.envelope); code != http.StatusOK {
				t.Fatalf("%s%s: envelope request drew HTTP %d", prefix, ep.path, code)
			}
			if code, _ := served(prefix+ep.path, ep.legacy); code != http.StatusBadRequest {
				t.Errorf("%s%s: gob request drew HTTP %d, want 400", prefix, ep.path, code)
			}
		}
	}
	// The update response is also the in-process delta, bit for bit.
	_, body := served("/c/3/v1/update", endpoints[0].envelope)
	up := updatePayload{Limit: int64(len(body))}
	if err := up.DecodeBody(bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	want := (&fl.SyntheticClient{Id: 3, Seed: 96}).LocalUpdate(global, 3)
	if !sameBits(up.Delta, want) {
		t.Error("wire delta differs from the in-process delta")
	}
}

// TestAccuracyEndpointIsGone: the defense asks clients for rank and vote
// reports only, so the request an aggregator that still asked for a
// client-reported accuracy sends (kind 8, retired, to /v1/accuracy) is a
// 404 from a fleet slot with a model architecture and from one without — a
// permanent rejection, never a handler panic.
func TestAccuracyEndpointIsGone(t *testing.T) {
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 8, W: 8}, 4, rand.New(rand.NewSource(95)))
	body := appendRequest(nil, 8, request{Model: template})
	fleet := NewFleet()
	fleet.AddWithModel(&fl.SyntheticClient{Id: 3, Seed: 96, Units: 16}, template)
	fleet.Add(&fl.SyntheticClient{Id: 4, Seed: 96, Units: 16})
	for _, path := range []string{"/c/3/v1/accuracy", "/c/4/v1/accuracy"} {
		panics := obs.M.FedloadHandlerPanics.Value()
		rec := httptest.NewRecorder()
		fleet.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s: HTTP %d, want 404", path, rec.Code)
		}
		if got := obs.M.FedloadHandlerPanics.Value() - panics; got != 0 {
			t.Errorf("%s: fedload_handler_panics_total moved by %d", path, got)
		}
	}
}
