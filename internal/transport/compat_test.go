package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"flag"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// The cross-version compatibility corpus (testdata/wire): one golden file
// per encoding a deployed binary has ever produced — legacy gob models and
// update responses, compact v1 report payloads, versioned envelopes — each
// regenerated from fixed seeds with -update and then pinned. The table
// test below decodes every file through the *sniffing dispatchers* the
// current binary actually uses (nn.LoadAny, updatePayload, rankPayload,
// votePayload) and asserts bit-identity with the value the original
// decoder produces, so a wire or serialization change that silently breaks
// an old peer or an old file on disk fails CI instead of a rollout.

var updateGolden = flag.Bool("update", false, "regenerate the testdata/wire golden corpus")

const goldenDir = "testdata/wire"

// compatModel is the corpus's fixed model: a pure function of its seeds,
// with one pruned unit so the mask state crosses formats too.
func compatModel() (*nn.Sequential, nn.Input, int) {
	in := nn.Input{C: 1, H: 8, W: 8}
	const classes = 4
	m := nn.NewSmallCNN(in, classes, rand.New(rand.NewSource(91)))
	m.PruneModelUnit(m.PrunableLayers()[0], 1)
	return m, in, classes
}

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

func compatActs() []float64 {
	rng := rand.New(rand.NewSource(94))
	a := make([]float64, 64)
	for i := range a {
		a[i] = rng.Float64()
	}
	return a
}

// goldenFiles materializes every corpus entry from the fixed seeds.
func goldenFiles(t *testing.T) map[string][]byte {
	t.Helper()
	m, in, classes := compatModel()
	files := map[string][]byte{}

	var legacyModel bytes.Buffer
	if err := nn.Save(&legacyModel, "small", in, classes, m); err != nil {
		t.Fatal(err)
	}
	files["model-legacy-gob.bin"] = legacyModel.Bytes()

	versionedModel, err := nn.EncodeVersionedModel("small", in, classes, m)
	if err != nil {
		t.Fatal(err)
	}
	files["model-versioned-v1.bin"] = versionedModel

	var legacyUpdate bytes.Buffer
	if err := gob.NewEncoder(&legacyUpdate).Encode(UpdateResponse{Delta: compatDelta()}); err != nil {
		t.Fatal(err)
	}
	files["update-legacy-gob.bin"] = legacyUpdate.Bytes()
	files["update-versioned-v1.bin"] = AppendVersionedUpdate(nil, compatDelta())

	var legacyRanks bytes.Buffer
	if err := gob.NewEncoder(&legacyRanks).Encode(RankResponse{Ranks: compatRanks()}); err != nil {
		t.Fatal(err)
	}
	files["report-ranks-legacy-gob.bin"] = legacyRanks.Bytes()
	files["report-ranks-compact-v1.bin"] = AppendRanksDelta(nil, compatRanks())

	var legacyVotes bytes.Buffer
	if err := gob.NewEncoder(&legacyVotes).Encode(VoteResponse{Votes: compatVotes()}); err != nil {
		t.Fatal(err)
	}
	files["report-votes-legacy-gob.bin"] = legacyVotes.Bytes()
	files["report-votes-compact-v1.bin"] = AppendVoteBitmap(nil, compatVotes())

	files["report-acts8-compact-v1.bin"] = AppendActs8(nil, metrics.QuantizeActivations(compatActs()))

	for name, kind := range compatRequestKinds {
		files[name] = appendRequest(nil, kind, compatRequest(kind))
	}
	return files
}

// compatRequestKinds maps the corpus's request files to their kinds.
var compatRequestKinds = map[string]uint16{
	"request-update-v1.bin":   wire.KindUpdateRequest,
	"request-ranks-v1.bin":    wire.KindRankRequest,
	"request-votes-v1.bin":    wire.KindVoteRequest,
	"request-accuracy-v1.bin": wire.KindAccuracyRequest,
}

// compatRequest is the corpus's fixed request of a kind. Three ship the
// delta vector as their global, IEEE specials included; the accuracy
// request encodes straight from the seeded model, the way RemoteClient
// sends every report request.
func compatRequest(kind uint16) request {
	if kind == wire.KindAccuracyRequest {
		m, _, _ := compatModel()
		return request{Model: m}
	}
	return request{Global: compatDelta(), Round: 7, Layer: 2, Rate: 0.25}
}

// loadGolden reads one corpus file, regenerating the corpus first under
// -update.
func loadGolden(t *testing.T, files map[string][]byte, name string) []byte {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if *updateGolden {
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
// sniffing dispatchers and pins the result against the original decoder's
// output. The legacy files are frozen bytes from the pre-envelope wire
// format; if this test fails after a serialization change, the change
// broke compatibility with deployed peers and files — fix the change, do
// not regenerate the legacy files.
func TestCrossVersionGoldenCorpus(t *testing.T) {
	files := goldenFiles(t)
	refModel, _, _ := compatModel()
	refParams := refModel.ParamsVector()

	t.Run("sniff", func(t *testing.T) {
		for name, format := range map[string]wire.Format{
			"model-legacy-gob.bin":        wire.FormatGob,
			"model-versioned-v1.bin":      wire.FormatVersioned,
			"update-legacy-gob.bin":       wire.FormatGob,
			"update-versioned-v1.bin":     wire.FormatVersioned,
			"report-ranks-legacy-gob.bin": wire.FormatGob,
			"report-ranks-compact-v1.bin": wire.FormatReportTag,
			"report-votes-legacy-gob.bin": wire.FormatGob,
			"report-votes-compact-v1.bin": wire.FormatReportTag,
			"report-acts8-compact-v1.bin": wire.FormatReportTag,
		} {
			if got := wire.Sniff(loadGolden(t, files, name)); got != format {
				t.Errorf("%s sniffs as %v, want %v", name, got, format)
			}
		}
	})

	t.Run("golden-stable", func(t *testing.T) {
		// The versioned and compact encoders are canonical: re-encoding the
		// fixed seeds must reproduce the checked-in bytes exactly. (The gob
		// legacy files are pinned but not re-derived — gob's type-descriptor
		// layout belongs to the Go release that wrote them.)
		for _, name := range []string{
			"model-versioned-v1.bin", "update-versioned-v1.bin",
			"report-ranks-compact-v1.bin", "report-votes-compact-v1.bin",
			"report-acts8-compact-v1.bin",
		} {
			if !bytes.Equal(loadGolden(t, files, name), files[name]) {
				t.Errorf("%s: checked-in bytes differ from canonical re-encoding", name)
			}
		}
	})

	t.Run("models", func(t *testing.T) {
		for _, name := range []string{"model-legacy-gob.bin", "model-versioned-v1.bin"} {
			data := loadGolden(t, files, name)
			m, err := nn.LoadAny(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameBits(m.ParamsVector(), refParams) {
				t.Fatalf("%s: parameters differ from the seeded model", name)
			}
		}
		// The dispatcher's gob branch must agree with the original decoder.
		direct, err := nn.Load(bytes.NewReader(loadGolden(t, files, "model-legacy-gob.bin")))
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(direct.ParamsVector(), refParams) {
			t.Fatal("legacy nn.Load differs from the seeded model")
		}
	})

	t.Run("updates", func(t *testing.T) {
		want := compatDelta()
		for _, name := range []string{"update-legacy-gob.bin", "update-versioned-v1.bin"} {
			var up updatePayload
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
		for _, name := range []string{"report-ranks-legacy-gob.bin", "report-ranks-compact-v1.bin"} {
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
		for _, name := range []string{"report-votes-legacy-gob.bin", "report-votes-compact-v1.bin"} {
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
		data := loadGolden(t, files, "report-acts8-compact-v1.bin")
		q, err := DecodeActs8(data)
		if err != nil {
			t.Fatal(err)
		}
		want := core.RanksFromQuantized(q.Q)
		var rp rankPayload
		if err := rp.DecodeBody(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		if !sameIntSlices(rp.Ranks, want) {
			t.Fatalf("acts8 ranks %v, want %v", rp.Ranks, want)
		}
	})
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
		"wrong-kind":  wire.NewEncoder(wire.KindModel).Bytes(),
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

// TestVersionedUpdateOverWire proves the migration story end to end: the
// same participant served with legacy gob updates and with versioned
// updates hands the same RemoteClient bit-identical deltas.
func TestVersionedUpdateOverWire(t *testing.T) {
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 8, W: 8}, 4, rand.New(rand.NewSource(95)))
	global := template.ParamsVector()
	serve := func(versioned bool) []float64 {
		cs := NewClientServer(&fl.SyntheticClient{Id: 0, Seed: 96}, template)
		cs.SetVersionedUpdates(versioned)
		addr, err := cs.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = cs.Shutdown(context.Background()) }()
		rc := NewRemoteClient(0, addr)
		d, err := rc.TryLocalUpdate(context.Background(), global, 3)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	want := (&fl.SyntheticClient{Id: 0, Seed: 96}).LocalUpdate(global, 3)
	if !sameBits(serve(false), want) {
		t.Fatal("legacy gob update differs from the in-process delta")
	}
	if !sameBits(serve(true), want) {
		t.Fatal("versioned update differs from the in-process delta")
	}
}

// TestRequestGoldenCorpus pins the four request envelopes the way
// TestCrossVersionGoldenCorpus pins the response side: the checked-in
// bytes sniff as versioned, equal the canonical re-encoding of the fixed
// seeds, and decode on their endpoint to exactly the fields that went in —
// and on no other endpoint.
func TestRequestGoldenCorpus(t *testing.T) {
	files := goldenFiles(t)
	for name, kind := range compatRequestKinds {
		data := loadGolden(t, files, name)
		if got := wire.Sniff(data); got != wire.FormatVersioned {
			t.Errorf("%s sniffs as %v, want versioned", name, got)
		}
		if !bytes.Equal(data, files[name]) {
			t.Errorf("%s: checked-in bytes differ from canonical re-encoding", name)
		}
		got, err := decodeRequest(data, kind)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := compatRequest(kind)
		if want.Model != nil {
			want.Global = want.Model.ParamsVector()
		}
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
}

// TestRequestEncodingsAgree is the request half of the migration story: a
// legacy gob request (what an aggregator older than the envelope sends)
// and the envelope request (what RemoteClient sends now) draw bit-identical
// responses from the same handler, on every endpoint, from a ClientServer
// and from a Fleet.
func TestRequestEncodingsAgree(t *testing.T) {
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 8, W: 8}, 4, rand.New(rand.NewSource(95)))
	global := template.ParamsVector()
	layer := template.LastConvIndex()

	cs := NewClientServer(&fl.SyntheticClient{Id: 3, Seed: 96, Units: 16}, template)
	fleet := NewFleet()
	fleet.Add(&fl.SyntheticClient{Id: 3, Seed: 96, Units: 16})
	handlers := map[string]struct {
		h      http.Handler
		prefix string
	}{
		"ClientServer": {cs.Handler(), ""},
		"Fleet":        {fleet.Handler(), "/c/3"},
	}

	gobBody := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	endpoints := []struct {
		path     string
		legacy   []byte
		envelope []byte
	}{
		{"/v1/update", gobBody(UpdateRequest{Global: global, Round: 3}),
			appendRequest(nil, wire.KindUpdateRequest, request{Global: global, Round: 3})},
		{"/v1/ranks", gobBody(RankRequest{Global: global, Layer: layer}),
			appendRequest(nil, wire.KindRankRequest, request{Model: template, Layer: layer})},
		{"/v1/votes", gobBody(VoteRequest{Global: global, Layer: layer, Rate: 0.5}),
			appendRequest(nil, wire.KindVoteRequest, request{Model: template, Layer: layer, Rate: 0.5})},
		{"/v1/accuracy", gobBody(AccuracyRequest{Global: global}),
			appendRequest(nil, wire.KindAccuracyRequest, request{Model: template})},
	}
	post := func(h http.Handler, path string, body []byte) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", path, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	for name, hd := range handlers {
		for _, ep := range endpoints {
			legacy := post(hd.h, hd.prefix+ep.path, ep.legacy)
			envelope := post(hd.h, hd.prefix+ep.path, ep.envelope)
			if !bytes.Equal(legacy, envelope) {
				t.Errorf("%s %s: gob and envelope requests drew different responses", name, ep.path)
			}
		}
		// The update response is also the in-process delta, bit for bit.
		var up updatePayload
		if err := up.DecodeBody(bytes.NewReader(post(hd.h, hd.prefix+"/v1/update", endpoints[0].envelope))); err != nil {
			t.Fatal(err)
		}
		want := (&fl.SyntheticClient{Id: 3, Seed: 96}).LocalUpdate(global, 3)
		if !sameBits(up.Delta, want) {
			t.Errorf("%s: wire delta differs from the in-process delta", name)
		}
	}
}
