package nn

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// updateCorpus regenerates the checked-in fuzz corpus under testdata/fuzz
// (go test ./internal/nn -run FuzzCorpus -update).
var updateCorpus = flag.Bool("update", false, "regenerate checked-in fuzz corpora")

// writeFuzzCorpus writes entries in Go's fuzz corpus file format so the
// fuzz engine (and plain `go test`, which replays testdata corpora as
// seeds) picks them up.
func writeFuzzCorpus(t *testing.T, target string, entries map[string][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range entries {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkFuzzCorpus asserts every expected corpus entry is checked in.
func checkFuzzCorpus(t *testing.T, target string, entries map[string][]byte) {
	t.Helper()
	for name := range entries {
		p := filepath.Join("testdata", "fuzz", target, name)
		if _, err := os.Stat(p); err != nil {
			t.Errorf("corpus entry missing (rerun with -update): %v", err)
		}
	}
}

func sameParams(t *testing.T, a, b *Sequential) {
	t.Helper()
	av, bv := a.ParamsVector(), b.ParamsVector()
	if len(av) != len(bv) {
		t.Fatalf("param counts differ: %d vs %d", len(av), len(bv))
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("param %d differs: %v vs %v", i, av[i], bv[i])
		}
	}
}

func TestVersionedSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	in := Input{C: 1, H: 16, W: 16}
	m := NewSmallCNN(in, 10, rng)
	m.PruneModelUnit(m.LastConvIndex(), 2)
	data, err := EncodeVersionedModel("small", in, 10, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadAny(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sameParams(t, m, got)
	conv := got.Layer(m.LastConvIndex()).(*Conv2D)
	if !conv.UnitPruned(2) || conv.PrunedCount() != 1 {
		t.Fatal("prune mask lost in round trip")
	}
	x := tensor.New(2, 1, 16, 16)
	x.Randn(rng, 1)
	if !m.Forward(x, false).Equal(got.Forward(x, false), 0) {
		t.Fatal("loaded model evaluates differently")
	}
}

func TestVersionedSaveLoadMiniVGGWithStats(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	in := Input{C: 3, H: 16, W: 16}
	m := NewMiniVGG(in, 10, rng)
	x := tensor.New(4, 3, 16, 16)
	x.Randn(rng, 2)
	m.Forward(x, true) // move the running statistics off their defaults
	data, err := EncodeVersionedModel("minivgg", in, 10, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadAny(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Forward(x, false).Equal(got.Forward(x, false), 0) {
		t.Fatal("running statistics lost in round trip")
	}
}

func TestVersionedRejectsUnknownBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	in := Input{C: 1, H: 16, W: 16}
	m := NewSmallCNN(in, 10, rng)
	if _, err := EncodeVersionedModel("resnet", in, 10, m); err == nil {
		t.Fatal("unknown builder accepted")
	}
}

func TestDecodeVersionedModelRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	in := Input{C: 1, H: 16, W: 16}
	m := NewSmallCNN(in, 10, rng)
	good, err := EncodeVersionedModel("small", in, 10, m)
	if err != nil {
		t.Fatal(err)
	}
	state := AppendModelState(nil, m)
	geo := func(c, h, w, classes uint64) []byte {
		var g []byte
		for _, v := range []uint64{c, h, w, classes} {
			g = wire.AppendUint(g, v)
		}
		return g
	}
	forge := func(secs ...wire.Section) []byte {
		e := wire.NewEncoder(wire.KindModel)
		for _, s := range secs {
			e.Section(s.Type, s.Payload)
		}
		return e.Bytes()
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"wrong kind", wire.NewEncoder(wire.KindCheckpoint).Bytes(), "kind"},
		{"missing sections", forge(wire.Section{Type: 1, Payload: []byte("small")}), "missing required"},
		{"unknown builder", forge(
			wire.Section{Type: 1, Payload: []byte("resnet")},
			wire.Section{Type: 2, Payload: geo(1, 16, 16, 10)},
			wire.Section{Type: 3, Payload: state},
		), "unknown model"},
		{"zero geometry", forge(
			wire.Section{Type: 1, Payload: []byte("small")},
			wire.Section{Type: 2, Payload: geo(1, 0, 16, 10)},
			wire.Section{Type: 3, Payload: state},
		), "out of range"},
		{"huge geometry", forge(
			wire.Section{Type: 1, Payload: []byte("small")},
			wire.Section{Type: 2, Payload: geo(1, 1<<21, 16, 10)},
			wire.Section{Type: 3, Payload: state},
		), "out of range"},
		{"geometry mismatch", forge(
			wire.Section{Type: 1, Payload: []byte("small")},
			wire.Section{Type: 2, Payload: geo(1, 16, 16, 3)},
			wire.Section{Type: 3, Payload: state},
		), "params"},
		{"truncated state", forge(
			wire.Section{Type: 1, Payload: []byte("small")},
			wire.Section{Type: 2, Payload: geo(1, 16, 16, 10)},
			wire.Section{Type: 3, Payload: state[:len(state)/2]},
		), "param bytes"},
	}
	for _, tc := range cases {
		if _, err := DecodeVersionedModel(tc.data); err == nil ||
			!strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// The unmodified payload still decodes — the rejection table above is
	// not rejecting everything.
	if _, err := DecodeVersionedModel(good); err != nil {
		t.Fatalf("good payload rejected: %v", err)
	}
	// Unknown future section types are skipped, not fatal.
	withExtra := forge(
		wire.Section{Type: 1, Payload: []byte("small")},
		wire.Section{Type: 2, Payload: geo(1, 16, 16, 10)},
		wire.Section{Type: 3, Payload: state},
		wire.Section{Type: 99, Payload: []byte("future")},
	)
	if _, err := DecodeVersionedModel(withExtra); err != nil {
		t.Fatalf("unknown section not skipped: %v", err)
	}
}

// versionedModelSeeds builds the interesting decode inputs: one valid
// payload plus the hostile shapes the parser must reject without panic —
// truncation, wrong magic, wrong kind, future version, forged oversized
// section length.
func versionedModelSeeds(tb testing.TB) map[string][]byte {
	rng := rand.New(rand.NewSource(98))
	in := Input{C: 1, H: 16, W: 16}
	m := NewSmallCNN(in, 10, rng)
	m.PruneModelUnit(m.LastConvIndex(), 2)
	good, err := EncodeVersionedModel("small", in, 10, m)
	if err != nil {
		tb.Fatal(err)
	}
	future := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(future[4:6], 99) // (CRC now stale too)
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[12:16], 0xFFFFFFFF)
	// A bare model-state payload under the retired kind 4: a well-formed
	// envelope of the wrong kind.
	wrongKind := wire.NewEncoder(4).Section(secModelState, AppendModelState(nil, m)).Bytes()
	return map[string][]byte{
		"valid":             good,
		"empty":             {},
		"truncated-header":  good[:8],
		"wrong-magic":       append([]byte("GOBX"), good[4:]...),
		"wrong-kind":        wrongKind,
		"future-version":    future,
		"oversized-section": huge,
	}
}

func TestVersionedModelFuzzCorpus(t *testing.T) {
	seeds := versionedModelSeeds(t)
	if *updateCorpus {
		writeFuzzCorpus(t, "FuzzDecodeVersionedModel", seeds)
		return
	}
	checkFuzzCorpus(t, "FuzzDecodeVersionedModel", seeds)
}

func FuzzDecodeVersionedModel(f *testing.F) {
	for _, seed := range versionedModelSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; a returned model must be internally consistent.
		got, err := DecodeVersionedModel(data)
		if err == nil && got.NumParams() != len(got.ParamsVector()) {
			t.Fatal("decoded model is inconsistent")
		}
	})
}
