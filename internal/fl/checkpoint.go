package fl

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Durable rounds (DESIGN.md §15). A multi-day federation is one SIGKILL
// away from losing every applied round unless the server's state — model
// parameters, round counter, seed and, mid-round, the streaming fold
// accumulator — survives on disk. A Checkpointer writes
// that state as CRC-sealed wire.KindCheckpoint envelopes on a configurable
// cadence, atomically (temp file + fsync + rename), so the directory only
// ever contains complete checkpoints plus at most one torn temp file that
// the loader ignores. Restart is LatestCheckpoint + Server.ResumeFrom.

// Checkpoint section types (wire.KindCheckpoint payloads).
const (
	// secCkptRound: uvarints NextRound, Seed (two's-complement cast),
	// Registered.
	secCkptRound uint16 = 1
	// secCkptModel: the nn.AppendModelState payload of the global model.
	secCkptModel uint16 = 2
	// secCkptPartial: interrupted-round state (see PartialRound).
	secCkptPartial uint16 = 3
)

// maxCheckpointBytes caps how much DecodeCheckpoint accepts: generous for
// any model this repository builds (the largest is a few MiB of float64
// params), far below anything that could balloon memory.
const maxCheckpointBytes = 1 << 30

// Checkpoint is a server's durable state: everything needed to restart a
// federation where it stopped. Model holds the nn.AppendModelState payload
// of the global model. Cohorts are a pure function of (seed, round), so the
// round and the seed pin the ones the resumed run picks.
type Checkpoint struct {
	// NextRound is the first round the resumed driver should run. A
	// partial checkpoint has NextRound == Partial.Round: the interrupted
	// round itself.
	NextRound int
	// Seed is the server's seed, verified on resume.
	Seed int64
	// Registered is the population size at capture, verified on resume.
	Registered int
	// Model is the global model's parameter/mask payload.
	Model []byte
	// Partial, when non-nil, is the interrupted streaming round's state.
	Partial *PartialRound

	// live, on the checkpoints a server cuts for its own checkpointer, is
	// the model whose state the encoder writes where Model would go —
	// straight from the parameter tensors, no payload in between. Such a
	// checkpoint describes the server only until its model next changes.
	live *nn.Sequential
}

// PartialRound captures a streaming round mid-fold: the cohort bookkeeping
// plus the fold accumulator, so a resumed server starts the round from
// there (Server.ResumeFrom checks it first) and collects only the
// participants that had not yet folded. The fold is strictly
// participant-ordered, so restoring Acc and continuing from the recorded
// prefix replays the exact scalar sequence of an uninterrupted round.
type PartialRound struct {
	// Round is the interrupted round index.
	Round int
	// Selected is the full cohort drawn for the round, participant order.
	Selected []int
	// Completed lists the IDs folded before the checkpoint.
	Completed []int
	// Dropped lists the IDs that delivered nothing before the checkpoint
	// (policy drops — always recorded in full, they precede collection —
	// then wire failures).
	Dropped []int
	// FoldN is the fold count (== len(Completed)).
	FoldN int
	// Acc is the fold accumulator at the checkpoint. On a checkpoint the
	// server is about to write it is the fold's own accumulator, not a copy:
	// valid until the next Fold call.
	Acc []float64
}

// EncodeCheckpoint serializes ck as a wire.KindCheckpoint envelope.
func EncodeCheckpoint(ck *Checkpoint) []byte {
	return appendCheckpoint(nil, ck)
}

// appendCheckpoint appends ck's envelope to dst. It is the one checkpoint
// encoder: every section is written once, into its final place, from where
// its values live — the model section from ck.Model or the live model's
// tensors, the accumulator from the slice the fold handed over.
func appendCheckpoint(dst []byte, ck *Checkpoint) []byte {
	w := wire.NewWriter(dst, wire.KindCheckpoint)
	w.Section(secCkptRound)
	w.B = wire.AppendUint(w.B, uint64(ck.NextRound))
	w.B = wire.AppendUint(w.B, uint64(ck.Seed))
	w.B = wire.AppendUint(w.B, uint64(ck.Registered))
	w.Section(secCkptModel)
	if ck.live != nil {
		w.B = nn.AppendModelState(w.B, ck.live)
	} else {
		w.B = append(w.B, ck.Model...)
	}
	if p := ck.Partial; p != nil {
		w.Section(secCkptPartial)
		w.B = wire.AppendUint(w.B, uint64(p.Round))
		w.B = wire.AppendInts(w.B, p.Selected)
		w.B = wire.AppendInts(w.B, p.Completed)
		w.B = wire.AppendInts(w.B, p.Dropped)
		w.B = wire.AppendUint(w.B, uint64(p.FoldN))
		w.B = wire.AppendUint(w.B, uint64(len(p.Acc)))
		w.B = wire.AppendFloat64s(w.B, p.Acc)
	}
	return w.Finish()
}

// DecodeCheckpoint parses a wire.KindCheckpoint envelope. Malformed input
// errors — never panics, never allocates past the payload's own size.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) > maxCheckpointBytes {
		return nil, fmt.Errorf("fl: checkpoint of %d bytes exceeds cap", len(data))
	}
	secs, err := wire.DecodeKind(data, wire.KindCheckpoint)
	if err != nil {
		return nil, fmt.Errorf("fl: DecodeCheckpoint: %w", err)
	}
	ck := &Checkpoint{}
	var haveRound, haveModel bool
	for _, s := range secs {
		switch s.Type {
		case secCkptRound:
			u := make([]uint64, 3)
			rest := s.Payload
			for i := range u {
				if u[i], rest, err = wire.ReadUint(rest); err != nil {
					return nil, fmt.Errorf("fl: DecodeCheckpoint: round state: %w", err)
				}
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("fl: DecodeCheckpoint: %d trailing round-state bytes", len(rest))
			}
			if u[0] > 1<<31 || u[2] > 1<<31 {
				return nil, fmt.Errorf("fl: DecodeCheckpoint: round/population out of range")
			}
			ck.NextRound = int(u[0])
			ck.Seed = int64(u[1])
			ck.Registered = int(u[2])
			haveRound = true
		case secCkptModel:
			ck.Model = s.Payload
			haveModel = true
		case secCkptPartial:
			p, err := decodePartial(s.Payload)
			if err != nil {
				return nil, err
			}
			ck.Partial = p
		}
	}
	if !haveRound || !haveModel {
		return nil, fmt.Errorf("fl: DecodeCheckpoint: missing required section (round/model)")
	}
	if ck.Partial != nil && ck.Partial.Round != ck.NextRound {
		return nil, fmt.Errorf("fl: DecodeCheckpoint: partial round %d under checkpoint for round %d",
			ck.Partial.Round, ck.NextRound)
	}
	return ck, nil
}

func decodePartial(p []byte) (*PartialRound, error) {
	fail := func(what string, err error) (*PartialRound, error) {
		return nil, fmt.Errorf("fl: DecodeCheckpoint: partial %s: %w", what, err)
	}
	pr := &PartialRound{}
	round, rest, err := wire.ReadUint(p)
	if err != nil {
		return fail("round", err)
	}
	if round > 1<<31 {
		return nil, fmt.Errorf("fl: DecodeCheckpoint: partial round %d out of range", round)
	}
	pr.Round = int(round)
	if pr.Selected, rest, err = wire.ReadInts(rest); err != nil {
		return fail("selected", err)
	}
	if pr.Completed, rest, err = wire.ReadInts(rest); err != nil {
		return fail("completed", err)
	}
	if pr.Dropped, rest, err = wire.ReadInts(rest); err != nil {
		return fail("dropped", err)
	}
	foldN, rest, err := wire.ReadUint(rest)
	if err != nil {
		return fail("fold count", err)
	}
	if foldN != uint64(len(pr.Completed)) {
		return nil, fmt.Errorf("fl: DecodeCheckpoint: fold count %d with %d completed",
			foldN, len(pr.Completed))
	}
	pr.FoldN = int(foldN)
	dim, rest, err := wire.ReadUint(rest)
	if err != nil {
		return fail("acc length", err)
	}
	if uint64(len(rest)) != 8*dim {
		return nil, fmt.Errorf("fl: DecodeCheckpoint: %d acc bytes for dim %d", len(rest), dim)
	}
	if pr.Acc, err = wire.Float64s(rest, int(dim)); err != nil {
		return fail("acc", err)
	}
	return pr, nil
}

// checkpointExt names complete checkpoint files; the atomic writer's temp
// files use a different suffix so a crash mid-write leaves nothing the
// loader would even open.
const checkpointExt = ".fcc"

// boundaryName formats a round-boundary checkpoint's file name; nextRound
// is the first round the resumed driver runs. partialName formats a
// mid-round checkpoint after the given fold. The widths and the 'f' < 'p'
// suffix order make lexical file-name order equal recency order: a round's
// partials sort after the boundary that opened the round (both carry
// NextRound == the interrupted round), and the next boundary sorts after
// them all.
func boundaryName(nextRound int) string {
	return fmt.Sprintf("ckpt-%08d-f%s", nextRound, checkpointExt)
}
func partialName(round, folds int) string {
	return fmt.Sprintf("ckpt-%08d-p%06d%s", round, folds, checkpointExt)
}

// AtomicWriteFile writes data so a crash at any instant leaves either the
// previous file or the new one, never a torn mix: write to a temp file in
// the same directory, fsync it, rename over the target, fsync the
// directory so the rename itself is durable.
func AtomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-ckpt-*")
	if err != nil {
		return err
	}
	renamed := false
	defer func() {
		if !renamed { // after the rename there is no temp file left to remove
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	renamed = true
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// keepBoundaries bounds retention: the newest keepBoundaries boundary
// checkpoints and anything newer survive; older files are pruned after each
// boundary write.
const keepBoundaries = 2

// Checkpointer writes a server's checkpoints on a cadence. Zero values
// mean: boundary checkpoint after every round, no mid-round partials. The
// last two boundaries are kept (keepBoundaries).
type Checkpointer struct {
	// Dir is the checkpoint directory (must exist).
	Dir string
	// EveryRounds is the boundary cadence: a checkpoint after every n-th
	// round (<= 0 means every round).
	EveryRounds int
	// EveryFolds, when > 0, additionally writes a partial checkpoint
	// inside streaming rounds after every n-th folded update (plus one
	// before the first fold, so a pre-fold crash still resumes into the
	// round with its drawn cohort).
	EveryFolds int
	// WriteFile is the write seam, nil meaning AtomicWriteFile. Tests
	// inject torn writes here to prove resume never loads a torn file. data
	// is only valid during the call: it sits in a buffer the checkpointer
	// recycles as soon as WriteFile has returned.
	WriteFile func(path string, data []byte) error

	// lastMu guards lastPath, the most recent successfully written
	// checkpoint file (see LastPath).
	lastMu   sync.Mutex
	lastPath string

	// buf is the buffer the last write encoded into, kept for the next one.
	// The wire.Buffer pool would hand a write on another P than the last
	// one's an empty buffer (sync.Pool keeps a Put in that P's private
	// slot), to grow to a checkpoint's size again. A write that finds it
	// taken — two servers sharing one checkpointer — uses the pool.
	buf atomic.Pointer[wire.Buffer]
}

// LastPath returns the path of the most recent successfully written
// checkpoint ("" before the first write). The round audit trail records
// it, so each RoundAudit names the checkpoint that covers it.
func (c *Checkpointer) LastPath() string {
	c.lastMu.Lock()
	defer c.lastMu.Unlock()
	return c.lastPath
}

func (c *Checkpointer) boundaryDue(t int) bool {
	n := c.EveryRounds
	if n <= 0 {
		n = 1
	}
	return (t+1)%n == 0
}

func (c *Checkpointer) partialDue(folds int) bool {
	return c.EveryFolds > 0 && folds%c.EveryFolds == 0
}

// write encodes and durably writes one checkpoint under the given name,
// feeding the fl_checkpoint_* counters (the round's fl.checkpoint span times
// it). The bytes are assembled once, in the checkpointer's buffer, which
// this call owns from encode to the return of WriteFile.
func (c *Checkpointer) write(name string, ck *Checkpoint) error {
	buf := c.buf.Swap(nil)
	if buf == nil {
		buf = wire.GetBuffer()
	}
	defer func() {
		if !c.buf.CompareAndSwap(nil, buf) {
			buf.Release()
		}
	}()
	buf.B = appendCheckpoint(buf.B[:0], ck)
	wf := c.WriteFile
	if wf == nil {
		wf = AtomicWriteFile
	}
	path := filepath.Join(c.Dir, name)
	if err := wf(path, buf.B); err != nil {
		obs.M.FLCheckpointWriteErrors.Inc()
		return fmt.Errorf("fl: checkpoint %s: %w", name, err)
	}
	c.lastMu.Lock()
	c.lastPath = path
	c.lastMu.Unlock()
	obs.M.FLCheckpointWrites.Inc()
	obs.M.FLCheckpointBytes.Add(uint64(len(buf.B)))
	obs.L().Debug("fl: checkpoint written", "file", name, "bytes", len(buf.B),
		"next_round", ck.NextRound, "partial", ck.Partial != nil)
	return nil
}

// WriteBoundary persists a round-boundary checkpoint and prunes old files.
func (c *Checkpointer) WriteBoundary(ck *Checkpoint) error {
	if err := c.write(boundaryName(ck.NextRound), ck); err != nil {
		return err
	}
	c.prune()
	return nil
}

// WritePartial persists a mid-round checkpoint after the given fold count.
func (c *Checkpointer) WritePartial(ck *Checkpoint, folds int) error {
	if ck.Partial == nil {
		return fmt.Errorf("fl: WritePartial without partial state")
	}
	obs.M.FLCheckpointPartials.Inc()
	return c.write(partialName(ck.Partial.Round, folds), ck)
}

// prune removes checkpoint files older than the keepBoundaries-th newest
// boundary. Best-effort: retention failures only log, they never fail a
// round.
func (c *Checkpointer) prune() {
	names, err := checkpointNames(c.Dir)
	if err != nil {
		obs.L().Warn("fl: checkpoint prune", "err", err)
		return
	}
	// Walk newest-first; cut everything older than the keep-th boundary.
	cut := ""
	seen := 0
	for i := len(names) - 1; i >= 0; i-- {
		if strings.HasSuffix(names[i], "-f"+checkpointExt) {
			if seen++; seen == keepBoundaries {
				cut = names[i]
				break
			}
		}
	}
	if cut == "" {
		return
	}
	for _, n := range names {
		if n >= cut {
			break
		}
		if err := os.Remove(filepath.Join(c.Dir, n)); err != nil {
			obs.L().Warn("fl: checkpoint prune", "file", n, "err", err)
		}
	}
}

// checkpointNames lists the directory's checkpoint files in lexical (=
// recency) order.
func checkpointNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.Type().IsRegular() && strings.HasPrefix(e.Name(), "ckpt-") &&
			strings.HasSuffix(e.Name(), checkpointExt) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// LatestCheckpoint loads the newest complete checkpoint in dir. Torn or
// corrupt files — a crashed non-atomic writer, a bad disk — fail their
// envelope (magic, length or CRC) and are skipped (counted into
// fl_checkpoint_torn_total), so the loader degrades to the previous
// complete checkpoint rather than resurrecting garbage. A file whose
// envelope holds but whose contents do not decode — another format's, or
// another version's — is an error naming the file: starting over from an
// older checkpoint, or from round 0, would silently discard its rounds.
// Returns (nil, "", nil) when dir holds no checkpoint but torn ones.
func LatestCheckpoint(dir string) (*Checkpoint, string, error) {
	names, err := checkpointNames(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", nil
		}
		return nil, "", err
	}
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, "", err
		}
		ck, err := DecodeCheckpoint(data)
		if errors.Is(err, wire.ErrMagic) || errors.Is(err, wire.ErrTruncated) || errors.Is(err, wire.ErrChecksum) {
			obs.M.FLCheckpointTorn.Inc()
			obs.L().Warn("fl: skipping torn checkpoint", "file", names[i], "err", err)
			continue
		}
		if err != nil {
			return nil, "", fmt.Errorf("%w (checkpoint %s)", err, path)
		}
		return ck, path, nil
	}
	return nil, "", nil
}
