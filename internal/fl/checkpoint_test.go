package fl

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

var updateCorpus = flag.Bool("update", false, "regenerate checked-in fuzz corpora")

// selectionFederations are the two population forms of one small streaming
// federation — nine stateless clients, four drawn per round — for the
// cohort-selection tests.
func selectionFederations() map[string]func() *Server {
	template := nn.NewSequential(nn.NewDense("d", 4, 3, rand.New(rand.NewSource(5))),
		nn.NewReLU("r"), nn.NewDense("o", 3, 2, rand.New(rand.NewSource(6))))
	cfg := Config{SelectPerRound: 4, Quorum: 0.5, Streaming: true, Shards: 2}
	return map[string]func() *Server{
		"resident": func() *Server {
			parts := make([]Participant, 9)
			for i := range parts {
				parts[i] = &SyntheticClient{Id: i, Seed: 5}
			}
			return NewServer(template, parts, cfg, 33)
		},
		"registry": func() *Server {
			reg := NewRegistry(func(id int) Participant { return &SyntheticClient{Id: id, Seed: 5} })
			reg.RegisterRange(0, 9)
			return NewRegistryServer(template, reg, cfg, 33)
		},
	}
}

// TestCohortSelectionIsStateless: round t's cohort is a function of the
// seed and t alone — a fresh server that jumps straight to t, one that ran
// the rounds before it, one that fine-tuned between them and one resumed
// from a boundary checkpoint all draw the same clients.
func TestCohortSelectionIsStateless(t *testing.T) {
	const target = 3
	for name, mk := range selectionFederations() {
		t.Run(name, func(t *testing.T) {
			want := mk().RoundDetail(target).Selected
			if len(want) != 4 {
				t.Fatalf("round %d selected %v, want 4 clients", target, want)
			}
			ran, tuned, durable := mk(), mk(), mk()
			dir := t.TempDir()
			durable.SetCheckpointer(&Checkpointer{Dir: dir})
			for r := 0; r < target; r++ {
				ran.RoundDetail(r)
				tuned.RoundDetail(r)
				tuned.FineTune(tuned.Model.Clone(), 2)
				durable.RoundDetail(r)
			}
			resumed := mk()
			if next, ok, err := resumed.ResumeLatest(dir); err != nil || !ok || next != target {
				t.Fatalf("resume: next %d, found %v, %v", next, ok, err)
			}
			for how, s := range map[string]*Server{"after its rounds": ran, "after fine-tuning": tuned, "resumed": resumed} {
				if got := s.RoundDetail(target).Selected; !sameInts(got, want) {
					t.Errorf("%s: round %d selected %v, a fresh server %v", how, target, got, want)
				}
			}
		})
	}
}

// TestCohortSelectionResumes: a server killed mid-round resumes that round
// with the cohort its partial checkpoint recorded and draws every later one
// as the uninterrupted run does.
func TestCohortSelectionResumes(t *testing.T) {
	const rounds = 5
	for name, mk := range selectionFederations() {
		t.Run(name, func(t *testing.T) {
			ref := mk()
			var want [][]int
			for r := 0; r < rounds; r++ {
				want = append(want, ref.RoundDetail(r).Selected)
			}
			dir := t.TempDir()
			s := mk()
			s.SetCheckpointer(&Checkpointer{Dir: dir, EveryFolds: 1})
			crashAt(s, CrashMidCollection, 2, 2)
			if _, crashed := runUntilCrash(t, s, rounds); !crashed {
				t.Fatal("scripted crash never fired")
			}
			res := mk()
			next, _, err := res.ResumeLatest(dir)
			if err != nil || next != 2 || res.pendingPartial == nil {
				t.Fatalf("resume: next %d, partial %v, %v", next, res.pendingPartial != nil, err)
			}
			for r := next; r < rounds; r++ {
				if got := res.RoundDetail(r).Selected; !sameInts(got, want[r]) {
					t.Fatalf("resumed round %d selected %v, uninterrupted %v", r, got, want[r])
				}
			}
		})
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := &Checkpoint{
		NextRound:  3,
		Seed:       -99,
		Registered: 9,
		Model:      []byte{1, 2, 3, 4},
		Partial: &PartialRound{
			Round:     3,
			Selected:  []int{4, 7, 1, 0},
			Completed: []int{4, 7},
			Dropped:   []int{1},
			FoldN:     2,
			Acc:       []float64{0.25, -1, math.Inf(1)},
		},
	}
	data := EncodeCheckpoint(ck)
	if !bytes.HasPrefix(data, wire.Magic[:]) {
		t.Fatal("checkpoint does not open with the envelope magic")
	}
	got, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextRound != ck.NextRound || got.Seed != ck.Seed || got.Registered != ck.Registered ||
		!bytes.Equal(got.Model, ck.Model) {
		t.Fatalf("boundary state mismatch: %+v", got)
	}
	p, q := ck.Partial, got.Partial
	if q == nil || q.Round != p.Round || !sameInts(q.Selected, p.Selected) ||
		!sameInts(q.Completed, p.Completed) || !sameInts(q.Dropped, p.Dropped) ||
		q.FoldN != p.FoldN || len(q.Acc) != len(p.Acc) {
		t.Fatalf("partial state mismatch: %+v", q)
	}
	for i := range p.Acc {
		if math.Float64bits(q.Acc[i]) != math.Float64bits(p.Acc[i]) {
			t.Fatalf("acc %d not bit-exact", i)
		}
	}
	// Boundary-only checkpoints round-trip without a partial section.
	ck.Partial = nil
	got, err = DecodeCheckpoint(EncodeCheckpoint(ck))
	if err != nil || got.Partial != nil {
		t.Fatalf("boundary-only round trip: %v, partial %v", err, got.Partial)
	}
}

// TestCheckpointRestoresMiniVGGStatsAndMasks: a MiniVGG global model with
// BatchNorm running statistics moved off their defaults and a pruned unit
// comes back from its boundary checkpoint file evaluating bit for bit as it
// did, its prune mask included.
func TestCheckpointRestoresMiniVGGStatsAndMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	template := nn.NewMiniVGG(nn.Input{C: 3, H: 16, W: 16}, 10, rng)
	s := NewServer(template, nil, Config{}, 7)
	x := tensor.New(4, 3, 16, 16)
	x.Randn(rng, 2)
	s.Model.Forward(x, true) // move the running statistics off their defaults
	conv := s.Model.LastConvIndex()
	s.Model.PruneModelUnit(conv, 2)
	dir := t.TempDir()
	if err := (&Checkpointer{Dir: dir}).WriteBoundary(s.liveCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	resumed := NewServer(template, nil, Config{}, 7)
	if next, ok, err := resumed.ResumeLatest(dir); err != nil || !ok || next != 1 {
		t.Fatalf("resume: next %d, found %v, %v", next, ok, err)
	}
	if p := resumed.Model.Layer(conv).(nn.Prunable); !p.UnitPruned(2) || p.PrunedCount() != 1 {
		t.Fatal("prune mask lost in the checkpoint")
	}
	if !resumed.Model.Forward(x, false).Equal(s.Model.Forward(x, false), 0) {
		t.Fatal("restored model evaluates differently: running statistics or parameters lost")
	}
}

// checkpointSeeds builds the decode inputs the parser must survive.
func checkpointSeeds(tb testing.TB) map[string][]byte {
	good := EncodeCheckpoint(&Checkpoint{
		NextRound: 2, Seed: 9, Registered: 3,
		Model: []byte{9, 9},
		Partial: &PartialRound{Round: 2, Selected: []int{1, 2}, Completed: []int{1},
			FoldN: 1, Acc: []float64{0.5}},
	})
	mismatch := EncodeCheckpoint(&Checkpoint{
		NextRound: 2, Seed: 9, Registered: 3,
		Model: []byte{9, 9},
		Partial: &PartialRound{Round: 7, Selected: []int{1, 2}, Completed: []int{1},
			FoldN: 1, Acc: []float64{0.5}},
	})
	foldLie := EncodeCheckpoint(&Checkpoint{
		NextRound: 2, Seed: 9, Registered: 3,
		Model: []byte{9, 9},
		Partial: &PartialRound{Round: 2, Selected: []int{1, 2}, Completed: []int{1},
			FoldN: 5, Acc: []float64{0.5}},
	})
	return map[string][]byte{
		"valid":            good,
		"empty":            {},
		"truncated-header": good[:8],
		"wrong-magic":      append([]byte("GOBX"), good[4:]...),
		"wrong-kind":       wire.NewEncoder(1).Bytes(),
		"partial-mismatch": mismatch,
		"fold-count-lie":   foldLie,
		"older-layout":     olderLayoutCheckpoint(),
	}
}

// olderLayoutCheckpoint is a boundary checkpoint of resumeFixture in the
// layout that also recorded the selection generator's draw count: its round
// section holds four values (NextRound, Seed, Draws, Registered). Its
// envelope is sound, so the loader must refuse it rather than skip it.
func olderLayoutCheckpoint() []byte {
	w := wire.NewWriter(nil, wire.KindCheckpoint)
	w.Section(secCkptRound)
	for _, v := range []uint64{2, 9, 4, 3} {
		w.B = wire.AppendUint(w.B, v)
	}
	w.Section(secCkptModel)
	w.B = nn.AppendModelState(w.B, resumeFixture().Model)
	return w.Finish()
}

func TestDecodeCheckpointRejections(t *testing.T) {
	seeds := checkpointSeeds(t)
	for name, data := range seeds {
		_, err := DecodeCheckpoint(data)
		if name == "valid" {
			if err != nil {
				t.Errorf("valid checkpoint rejected: %v", err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Note: "partial-mismatch" and "fold-count-lie" are internally
	// inconsistent states EncodeCheckpoint happily seals — the decoder is
	// the validation layer, exactly like a file edited on disk.
}

func TestCheckpointFuzzCorpus(t *testing.T) {
	seeds := checkpointSeeds(t)
	for name, data := range resumeSeeds(t) {
		seeds[name] = data
	}
	if *updateCorpus {
		writeFuzzCorpus(t, "FuzzDecodeCheckpoint", seeds)
		return
	}
	for name := range seeds {
		p := filepath.Join("testdata", "fuzz", "FuzzDecodeCheckpoint", name)
		if _, err := os.Stat(p); err != nil {
			t.Errorf("corpus entry missing (rerun with -update): %v", err)
		}
	}
}

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

func FuzzDecodeCheckpoint(f *testing.F) {
	for _, seed := range checkpointSeeds(f) {
		f.Add(seed)
	}
	for _, seed := range resumeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic or allocate past the input's own size; a
		// decoded checkpoint must be internally consistent.
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if p := ck.Partial; p != nil {
			if p.Round != ck.NextRound || p.FoldN != len(p.Completed) {
				t.Fatal("inconsistent checkpoint accepted")
			}
		}
		// Nor may what decodes panic the server it is applied to: ResumeFrom
		// returns, and a checkpoint it accepted runs its round.
		s := resumeFixture()
		if s.ResumeFrom(ck) == nil {
			s.RoundDetail(ck.NextRound)
		}
	})
}

// resumeFixture is the tiny streaming server the resume seeds are written
// against: three stateless clients over a 23-parameter model.
func resumeFixture() *Server {
	template := nn.NewSequential(nn.NewDense("d", 4, 3, rand.New(rand.NewSource(5))),
		nn.NewReLU("r"), nn.NewDense("o", 3, 2, rand.New(rand.NewSource(6))))
	parts := make([]Participant, 3)
	for i := range parts {
		parts[i] = &SyntheticClient{Id: i, Seed: 8}
	}
	return NewServer(template, parts, Config{Streaming: true, Shards: 2, StreamWindow: 2}, 9)
}

// resumeSeeds are checkpoints that decode — the decoder cannot know the
// server — and that ResumeFrom must refuse on resumeFixture, one per
// rejection, beside the "resumable" one it must accept and finish.
func resumeSeeds(tb testing.TB) map[string][]byte {
	s := resumeFixture()
	dim := s.Model.NumParams()
	mk := func(edit func(ck *Checkpoint)) []byte {
		ck := s.CheckpointAt(1)
		ck.Partial = &PartialRound{Round: 1, Selected: []int{2, 0, 1}, Completed: []int{2},
			Dropped: []int{0}, FoldN: 1, Acc: make([]float64, dim)}
		edit(ck)
		return EncodeCheckpoint(ck)
	}
	return map[string][]byte{
		"resumable":                    mk(func(*Checkpoint) {}),
		"resume-unknown-client":        mk(func(ck *Checkpoint) { ck.Partial.Selected[2] = 7 }),
		"resume-selected-twice":        mk(func(ck *Checkpoint) { ck.Partial.Selected[2] = 2 }),
		"resume-completed-unselected":  mk(func(ck *Checkpoint) { ck.Partial.Selected = []int{2, 0}; ck.Partial.Dropped = []int{0, 1} }),
		"resume-completed-and-dropped": mk(func(ck *Checkpoint) { ck.Partial.Dropped = []int{2} }),
		"resume-dropped-twice":         mk(func(ck *Checkpoint) { ck.Partial.Dropped = []int{0, 0} }),
		"resume-short-accumulator":     mk(func(ck *Checkpoint) { ck.Partial.Acc = ck.Partial.Acc[:dim-1] }),
		"resume-wrong-population":      mk(func(ck *Checkpoint) { ck.Registered = 4 }),
		"resume-wrong-seed":            mk(func(ck *Checkpoint) { ck.Seed = 10 }),
		"resume-wrong-model":           mk(func(ck *Checkpoint) { ck.Model = ck.Model[:len(ck.Model)-8] }),
	}
}

// TestResumeFromRejections: a checkpoint that names clients this server
// does not have, splits its cohort inconsistently or carries an accumulator
// of another length is an error from ResumeFrom — with the file's name from
// ResumeLatest — never a panic in the round that would have consumed it,
// and the refused server runs on as if nothing had been offered.
func TestResumeFromRejections(t *testing.T) {
	for name, data := range resumeSeeds(t) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("%s does not decode: %v", name, err)
		}
		s := resumeFixture()
		before := s.Model.ParamsVector()
		err = s.ResumeFrom(ck)
		if name == "resumable" {
			if err != nil {
				t.Fatalf("resumable checkpoint refused: %v", err)
			}
			if res := s.RoundDetail(1); !res.Applied || !sameInts(res.Completed, []int{2, 1}) || !sameInts(res.Dropped, []int{0}) {
				t.Fatalf("resumed round: %+v", res)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s accepted", name)
			continue
		}
		if name == "resume-wrong-model" {
			continue // refused by nn.ApplyModelState, which owns what it leaves behind
		}
		if s.pendingPartial != nil {
			t.Errorf("%s: refused, yet a partial round is pending", name)
		}
		for i, v := range s.Model.ParamsVector() {
			if v != before[i] {
				t.Fatalf("%s: refused, yet param %d moved", name, i)
			}
		}
	}
	// A FoldN that disagrees with Completed cannot come out of the decoder
	// (fold-count-lie), but ResumeFrom also takes hand-built checkpoints.
	s := resumeFixture()
	ck := s.CheckpointAt(0)
	ck.Partial = &PartialRound{Selected: []int{0, 1}, Completed: []int{0}, FoldN: 2,
		Acc: make([]float64, s.Model.NumParams())}
	if err := s.ResumeFrom(ck); err == nil {
		t.Error("fold count 2 with one completed accepted")
	}
	// A model payload of another architecture is refused by its parameter
	// count.
	ck = s.CheckpointAt(0)
	ck.Model = nn.AppendModelState(nil, nn.NewSequential(nn.NewDense("d", 4, 4, rand.New(rand.NewSource(7)))))
	if err := s.ResumeFrom(ck); err == nil || !strings.Contains(err.Error(), "params") {
		t.Errorf("a model of another architecture: %v, want a parameter-count error", err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, boundaryName(1))
	if err := os.WriteFile(path, resumeSeeds(t)["resume-unknown-client"], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := resumeFixture().ResumeLatest(dir); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("ResumeLatest over a refused checkpoint: %v, want an error naming %s", err, path)
	}
}

func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.fcc")
	if err := AtomicWriteFile(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "two" {
		t.Fatalf("read back %q, %v", got, err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("%d entries left in dir, want 1 (no temp litter)", len(ents))
	}
	// A write that fails before its rename landed — here the rename itself,
	// onto a directory — is the one that has a temp file to take away.
	if err := os.Mkdir(filepath.Join(dir, "d.fcc"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(filepath.Join(dir, "d.fcc"), []byte("three")); err == nil {
		t.Fatal("rename over a directory reported success")
	}
	if ents, _ = os.ReadDir(dir); len(ents) != 2 {
		t.Fatalf("%d entries left in dir after a failed rename, want 2 (no temp litter)", len(ents))
	}
}

// TestCheckpointsWrittenInPlaceMatchEncodeCheckpoint: what a streaming
// server's rounds hand WriteFile — encoded in place from the live model and
// the fold's own accumulator — is byte for byte EncodeCheckpoint of the
// materialised CheckpointAt plus, mid-round, the round's bookkeeping and an
// accumulator summed here from the completed clients' updates. The model
// carries a pruned unit, so the mask section is on the line too.
func TestCheckpointsWrittenInPlaceMatchEncodeCheckpoint(t *testing.T) {
	prev := parallel.SetWorkers(2)
	defer parallel.SetWorkers(prev)
	_, _, template, _ := tinySetup(t, 71)
	template.PruneModelUnit(template.LastConvIndex(), 1)
	const cohort, everyFolds = 8, 3
	s := syntheticServer(template, 200, cohort, Config{Streaming: true, Shards: 3, StreamWindow: 2})
	var boundary []byte
	partials := 0
	s.SetCheckpointer(&Checkpointer{Dir: t.TempDir(), EveryFolds: everyFolds, WriteFile: func(path string, data []byte) error {
		got, err := DecodeCheckpoint(data)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			return nil
		}
		if got.Partial == nil {
			boundary = bytes.Clone(data)
			return nil
		}
		partials++
		global := s.Model.ParamsVector()
		p := *got.Partial
		p.Acc = make([]float64, len(global))
		for _, id := range p.Completed {
			for j, d := range (&SyntheticClient{Id: id, Seed: 92}).LocalUpdate(global, p.Round) {
				p.Acc[j] += d
			}
		}
		want := s.CheckpointAt(got.NextRound)
		want.Partial = &p
		if !bytes.Equal(data, EncodeCheckpoint(want)) {
			t.Errorf("%s differs from EncodeCheckpoint of the same state", filepath.Base(path))
		}
		return nil
	}})
	for r := 0; r < 2; r++ {
		if res := s.RoundDetail(r); !res.Applied || len(res.Completed) != cohort {
			t.Fatalf("round %d: %+v", r, res)
		}
		if !bytes.Equal(boundary, EncodeCheckpoint(s.CheckpointAt(r+1))) {
			t.Errorf("boundary checkpoint after round %d differs from EncodeCheckpoint(CheckpointAt)", r)
		}
	}
	if want := 2 * (1 + cohort/everyFolds); partials != want {
		t.Errorf("%d partial checkpoints written, want %d", partials, want)
	}
}

// tornWriter is the crash-injection seam: it writes only the first half of
// the payload straight to the final path (no temp, no rename — the
// behavior AtomicWriteFile exists to prevent) and reports failure.
func tornWriter(path string, data []byte) error {
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		return err
	}
	return fmt.Errorf("injected crash mid-write")
}

// TestResumeNeverLoadsTornCheckpoint is the crash-safety satellite: after
// a torn write, LatestCheckpoint must return the previous complete
// checkpoint — never the torn file.
func TestResumeNeverLoadsTornCheckpoint(t *testing.T) {
	dir := t.TempDir()
	c := &Checkpointer{Dir: dir}
	good := &Checkpoint{NextRound: 1, Seed: 3, Registered: 4, Model: []byte{1}}
	if err := c.WriteBoundary(good); err != nil {
		t.Fatal(err)
	}
	// A torn boundary write for round 2: fails, leaves half a file.
	c.WriteFile = tornWriter
	if err := c.WriteBoundary(&Checkpoint{NextRound: 2, Seed: 3, Registered: 4,
		Model: []byte{2}}); err == nil {
		t.Fatal("torn write reported success")
	}
	names, err := checkpointNames(dir)
	if err != nil || len(names) != 2 {
		t.Fatalf("want the good and the torn file on disk, have %v (%v)", names, err)
	}
	ck, path, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.NextRound != 1 || !bytes.Equal(ck.Model, good.Model) {
		t.Fatalf("loaded %+v from %s, want the previous complete checkpoint", ck, path)
	}
	if strings.Contains(path, "00000002") {
		t.Fatalf("loaded the torn file %s", path)
	}
	// Same for a torn partial over a good boundary.
	if err := c.WritePartial(&Checkpoint{NextRound: 1, Seed: 3, Registered: 4, Model: []byte{1},
		Partial: &PartialRound{Round: 1, Selected: []int{0}, Acc: []float64{1}}}, 0); err == nil {
		t.Fatal("torn partial write reported success")
	}
	ck, _, err = LatestCheckpoint(dir)
	if err != nil || ck == nil || ck.NextRound != 1 || ck.Partial != nil {
		t.Fatalf("after torn partial: %+v, %v", ck, err)
	}
}

// TestResumeRefusesAnOlderLayout: a checkpoint whose envelope holds but
// whose contents do not decode — one in the older layout — is an error from
// ResumeLatest naming the file, not a torn file to skip: the server neither
// falls back to the boundary before it nor starts over from round 0.
func TestResumeRefusesAnOlderLayout(t *testing.T) {
	dir := t.TempDir()
	if err := (&Checkpointer{Dir: dir}).WriteBoundary(resumeFixture().CheckpointAt(1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, boundaryName(2))
	if err := os.WriteFile(path, olderLayoutCheckpoint(), 0o644); err != nil {
		t.Fatal(err)
	}
	if next, resumed, err := resumeFixture().ResumeLatest(dir); err == nil || resumed || !strings.Contains(err.Error(), path) {
		t.Fatalf("ResumeLatest over an older-layout checkpoint: next %d, resumed %v, %v; want an error naming %s",
			next, resumed, err, path)
	}
}

// TestTornTempNeverVisible: a crash before rename (the injected writer
// below dies without ever producing the final file) leaves only temp
// litter, which the loader does not even consider.
func TestTornTempNeverVisible(t *testing.T) {
	dir := t.TempDir()
	c := &Checkpointer{Dir: dir}
	if err := c.WriteBoundary(&Checkpoint{NextRound: 1, Model: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	c.WriteFile = func(path string, data []byte) error {
		// Crash mid-temp-write: short fsync, no rename.
		return os.WriteFile(filepath.Join(dir, ".tmp-ckpt-dead"), data[:1], 0o644)
	}
	if err := c.WriteBoundary(&Checkpoint{NextRound: 2, Model: []byte{2}}); err != nil {
		t.Fatal(err) // the seam itself succeeds; the file just never lands
	}
	ck, _, err := LatestCheckpoint(dir)
	if err != nil || ck == nil || ck.NextRound != 1 {
		t.Fatalf("temp litter leaked into recovery: %+v, %v", ck, err)
	}
}

func TestCheckpointerRetention(t *testing.T) {
	dir := t.TempDir()
	c := &Checkpointer{Dir: dir, EveryFolds: 1}
	for r := 1; r <= 5; r++ {
		// A partial inside round r, then the boundary that closes it.
		if err := c.WritePartial(&Checkpoint{NextRound: r, Model: []byte{byte(r)},
			Partial: &PartialRound{Round: r, Selected: []int{0}, Acc: []float64{1}}}, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteBoundary(&Checkpoint{NextRound: r + 1, Model: []byte{byte(r)}}); err != nil {
			t.Fatal(err)
		}
	}
	names, err := checkpointNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	var boundaries int
	for _, n := range names {
		if strings.HasSuffix(n, "-f"+checkpointExt) {
			boundaries++
		}
		if n < boundaryName(5) {
			t.Fatalf("file %s survived past retention cut %s", n, boundaryName(5))
		}
	}
	if boundaries != 2 {
		t.Fatalf("%d boundaries retained, want 2 (%v)", boundaries, names)
	}
	ck, _, err := LatestCheckpoint(dir)
	if err != nil || ck == nil || ck.NextRound != 6 {
		t.Fatalf("latest after retention: %+v, %v", ck, err)
	}
}

// errCrash is the sentinel the scripted CrashHook panics with; the harness
// recovers it, modeling an in-process SIGKILL.
type crashSentinel struct {
	point CrashPoint
	round int
	folds int
}

// crashAt installs a hook that kills the server the first time the given
// point fires at the given round/fold position.
func crashAt(s *Server, point CrashPoint, round, folds int) {
	fired := false
	s.CrashHook = func(p CrashPoint, r, f int) {
		if fired || p != point || r != round || (point != CrashPostQuorumPreApply && f != folds) {
			return
		}
		fired = true
		panic(crashSentinel{p, r, f})
	}
}

// runUntilCrash drives rounds until the scripted kill fires, returning how
// many rounds completed before death.
func runUntilCrash(t *testing.T, s *Server, rounds int) (completed int, crashed bool) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		died := func() (died bool) {
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(crashSentinel); !ok {
						panic(rec)
					}
					died = true
				}
			}()
			s.RoundDetail(r)
			return false
		}()
		if died {
			return r, true
		}
	}
	return rounds, false
}

// syntheticDurableServer builds a streaming federation of stateless
// synthetic clients with a checkpointer attached — the fixture for the
// kill-and-restart tests.
func syntheticDurableServer(t *testing.T, template *nn.Sequential, dir string, drop DropPolicy) *Server {
	t.Helper()
	cfg := Config{Rounds: 5, SelectPerRound: 6, Quorum: 0.5, Streaming: true, Shards: 4, StreamWindow: 2}
	parts := make([]Participant, 10)
	for i := range parts {
		parts[i] = &SyntheticClient{Id: i, Seed: 11}
	}
	s := NewServer(template, parts, cfg, 77)
	s.Drop = drop
	if dir != "" {
		s.SetCheckpointer(&Checkpointer{Dir: dir, EveryFolds: 1})
	}
	return s
}

// TestKillRestartBitIdentity is the fl-level kill-and-restart pin: for
// each scripted crash point, a server killed mid-run and resumed from its
// checkpoints must finish with parameters bit-identical to an
// uninterrupted run — including the cohorts it selects after the resumed
// round. The cross-process, wire-served version of this suite lives in
// internal/transport's chaos tests.
func TestKillRestartBitIdentity(t *testing.T) {
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rand.New(rand.NewSource(7)))
	drop := dropIDs{3: true}
	const rounds = 5

	ref := syntheticDurableServer(t, template, "", drop)
	for r := 0; r < rounds; r++ {
		ref.RoundDetail(r)
	}
	refParams := ref.Model.ParamsVector()

	cases := []struct {
		name  string
		point CrashPoint
		round int
		folds int
	}{
		{"pre-fold", CrashPreFold, 2, 0},
		{"mid-collection-first", CrashMidCollection, 2, 1},
		{"mid-collection-late", CrashMidCollection, 2, 4},
		{"post-quorum-pre-apply", CrashPostQuorumPreApply, 2, 0},
		{"round-zero", CrashMidCollection, 0, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := syntheticDurableServer(t, template, dir, drop)
			crashAt(s, tc.point, tc.round, tc.folds)
			if _, crashed := runUntilCrash(t, s, rounds); !crashed {
				t.Fatal("scripted crash never fired")
			}
			// "Restart": a fresh process image resumes from disk.
			res := syntheticDurableServer(t, template, dir, drop)
			next, resumed, err := res.ResumeLatest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !resumed {
				t.Fatal("no checkpoint found after crash")
			}
			for r := next; r < rounds; r++ {
				res.RoundDetail(r)
			}
			got := res.Model.ParamsVector()
			for i := range refParams {
				if got[i] != refParams[i] {
					t.Fatalf("param %d = %v, want %v (resumed run diverged)", i, got[i], refParams[i])
				}
			}
		})
	}
}

// TestKillRestartAcrossWorkers sweeps the fl-level kill-restart over
// worker counts, pinning that resume determinism is independent of
// collection concurrency.
func TestKillRestartAcrossWorkers(t *testing.T) {
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rand.New(rand.NewSource(7)))
	const rounds = 4
	ref := syntheticDurableServer(t, template, "", nil)
	for r := 0; r < rounds; r++ {
		ref.RoundDetail(r)
	}
	refParams := ref.Model.ParamsVector()
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := parallel.SetWorkers(workers)
			defer parallel.SetWorkers(prev)
			dir := t.TempDir()
			s := syntheticDurableServer(t, template, dir, nil)
			crashAt(s, CrashMidCollection, 1, 3)
			if _, crashed := runUntilCrash(t, s, rounds); !crashed {
				t.Fatal("scripted crash never fired")
			}
			res := syntheticDurableServer(t, template, dir, nil)
			next, resumed, err := res.ResumeLatest(dir)
			if err != nil || !resumed {
				t.Fatalf("resume: %v (found %v)", err, resumed)
			}
			for r := next; r < rounds; r++ {
				res.RoundDetail(r)
			}
			got := res.Model.ParamsVector()
			for i := range refParams {
				if got[i] != refParams[i] {
					t.Fatalf("workers=%d: param %d diverged", workers, i)
				}
			}
		})
	}
}

// TestResumeRejectsPopulationMismatch: resuming against a different
// federation is refused, not silently aggregated.
func TestResumeRejectsPopulationMismatch(t *testing.T) {
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rand.New(rand.NewSource(7)))
	dir := t.TempDir()
	s := syntheticDurableServer(t, template, dir, nil)
	s.RoundDetail(0)
	other := syntheticDurableServer(t, template, "", nil)
	other.Participants = other.Participants[:5]
	if _, _, err := other.ResumeLatest(dir); err == nil {
		t.Fatal("population mismatch accepted")
	}
}

// TestFineTuneNeverCheckpoints: defense fine-tuning shares the round
// machinery but must not write global-model checkpoints.
func TestFineTuneNeverCheckpoints(t *testing.T) {
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rand.New(rand.NewSource(7)))
	dir := t.TempDir()
	s := syntheticDurableServer(t, template, dir, nil)
	work := template.Clone()
	s.FineTune(work, 2)
	names, err := checkpointNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("fine-tuning wrote checkpoints: %v", names)
	}
}
