package fl

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Durable rounds (DESIGN.md §7). A multi-day federation is one SIGKILL
// away from losing every applied round unless the server's state — model
// parameters, round counter, seed and, mid-round, the mean fold's
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
	// Partial, when non-nil, is the interrupted folding round's state.
	Partial *PartialRound

	// live, on the checkpoints a server cuts for its own checkpointer, is
	// the model whose state the encoder writes where Model would go —
	// straight from the parameter tensors, no payload in between. Such a
	// checkpoint describes the server only until its model next changes.
	live *nn.Sequential
}

// PartialRound captures a folding round mid-fold: the cohort bookkeeping
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
//
// Every checkpoint is encoded on the goroutine that cuts it, into one of
// the checkpointer's two buffers, and written by one in-order writer
// goroutine (DESIGN.md §7). A round hands its partials over and folds on
// while they are created, fsynced and renamed; WriteBoundary and
// WritePartial return once their own file is durable.
type Checkpointer struct {
	// Dir is the checkpoint directory (must exist).
	Dir string
	// EveryRounds is the boundary cadence: a checkpoint after every n-th
	// round (<= 0 means every round).
	EveryRounds int
	// EveryFolds, when > 0, additionally writes a partial checkpoint
	// inside every round that folds (MeanAggregator's, Streaming or not)
	// after every n-th folded update (plus one before the first fold, so a
	// pre-fold crash still resumes into the round with its drawn cohort).
	// The round folds on while they are written, and skips the one after
	// its last fold when its boundary checkpoint is due: the boundary
	// replaces it.
	EveryFolds int
	// WriteFile is the write seam, nil meaning AtomicWriteFile. Tests
	// inject torn writes here to prove resume never loads a torn file. It
	// runs on the writer goroutine, one call at a time, in the order the
	// checkpoints were cut. data is only valid during the call: it sits in a
	// buffer the checkpointer encodes a later checkpoint into as soon as
	// WriteFile has returned.
	WriteFile func(path string, data []byte) error

	// mu guards lastPath, queue, writing and each slot's busy flag; the rest
	// of a busy slot belongs to whoever holds it, its encoder and then the
	// writer. freed is signalled whenever the writer has finished with a
	// buffer.
	mu    sync.Mutex
	freed sync.Cond
	// lastPath is the most recent successfully written checkpoint file (see
	// LastPath).
	lastPath string
	// slots are the two encode buffers with the checkpoints they hold: one
	// being written, one encoded behind it. They are the checkpointer's own
	// rather than the wire.Buffer pool's: sync.Pool keeps a Put in the
	// putting P's private slot, so a write on another P would find it empty
	// and grow a checkpoint-sized buffer again.
	slots [2]ckptSlot
	// queue holds the encoded checkpoints in write order; writing is set
	// while a writer goroutine drains it.
	queue   []*ckptSlot
	writing bool
}

// ckptSlot is one of a Checkpointer's encode buffers and the checkpoint it
// holds on its way to disk.
type ckptSlot struct {
	b []byte
	// busy runs from encode until the writer is done with b.
	busy      bool
	name      string
	nextRound int
	partial   bool
	// For a partial a round queued: its fl.checkpoint span, which the writer
	// ends once the file is durable, and the fold count a failure logs.
	sp    obs.Span
	folds int
	// done, for a write whose caller waits, receives the outcome; a round's
	// partial has none, and the writer logs its failure.
	done *writeResult
}

type writeResult struct {
	finished bool
	err      error
}

// LastPath returns the path of the most recent successfully written
// checkpoint ("" before the first write). The round audit trail records
// it, so each RoundAudit names the checkpoint that covers it.
func (c *Checkpointer) LastPath() string {
	c.mu.Lock()
	defer c.mu.Unlock()
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

// lock takes mu; a Checkpointer is a plain struct literal, so freed gets
// its locker here, on first use.
func (c *Checkpointer) lock() {
	c.mu.Lock()
	if c.freed.L == nil {
		c.freed.L = &c.mu
	}
}

// encode waits for a free buffer — both are taken only when the caller is
// more than one write ahead of the writer — and encodes ck into it under the
// given name. Of two free buffers it takes the larger, so a checkpointer
// whose writes never overlap grows one buffer only.
func (c *Checkpointer) encode(name string, ck *Checkpoint) *ckptSlot {
	c.lock()
	for c.slots[0].busy && c.slots[1].busy {
		c.freed.Wait()
	}
	s := &c.slots[0]
	if s.busy || (!c.slots[1].busy && cap(c.slots[1].b) > cap(s.b)) {
		s = &c.slots[1]
	}
	s.busy = true
	c.mu.Unlock()
	s.b = appendCheckpoint(s.b[:0], ck)
	s.name, s.nextRound, s.partial = name, ck.NextRound, ck.Partial != nil
	s.sp, s.folds, s.done = obs.Span{}, 0, nil
	return s
}

// enqueue hands an encoded checkpoint to the writer, starting one if none
// is running.
func (c *Checkpointer) enqueue(s *ckptSlot) {
	c.lock()
	c.queue = append(c.queue, s)
	if !c.writing {
		c.writing = true
		go c.writeQueued()
	}
	c.mu.Unlock()
}

// writeQueued is the writer: it writes the queue in order and exits once
// the queue is empty, so a checkpointer holds no goroutine between bursts;
// drain waits for the writes, not for the goroutine.
func (c *Checkpointer) writeQueued() {
	c.lock()
	for len(c.queue) > 0 {
		s := c.queue[0]
		c.mu.Unlock()
		path, err := c.write(s)
		c.lock()
		c.queue = c.queue[:copy(c.queue, c.queue[1:])]
		if err == nil {
			c.lastPath = path
		}
		if s.done != nil {
			s.done.finished, s.done.err = true, err
		}
		s.busy = false
		c.freed.Broadcast()
	}
	c.writing = false
	c.mu.Unlock()
}

// write durably writes one encoded checkpoint, feeding the fl_checkpoint_*
// counters, and ends a round's span on it.
func (c *Checkpointer) write(s *ckptSlot) (string, error) {
	wf := c.WriteFile
	if wf == nil {
		wf = AtomicWriteFile
	}
	path := filepath.Join(c.Dir, s.name)
	err := wf(path, s.b)
	if err != nil {
		obs.M.FLCheckpointWriteErrors.Inc()
		err = fmt.Errorf("fl: checkpoint %s: %w", s.name, err)
		if s.done == nil {
			obs.L().Warn("fl: partial checkpoint failed", "round", s.nextRound, "folds", s.folds, "err", err)
		}
	} else {
		obs.M.FLCheckpointWrites.Inc()
		obs.M.FLCheckpointBytes.Add(uint64(len(s.b)))
		obs.L().Debug("fl: checkpoint written", "file", s.name, "bytes", len(s.b),
			"next_round", s.nextRound, "partial", s.partial)
	}
	s.sp.End()
	return path, err
}

// drain returns once every checkpoint handed to the writer is durable (or
// has failed).
func (c *Checkpointer) drain() {
	c.lock()
	for c.slots[0].busy || c.slots[1].busy {
		c.freed.Wait()
	}
	c.mu.Unlock()
}

// writeNow writes ck behind everything queued and returns its own
// outcome. It drains first, so its encode takes the warm buffer.
func (c *Checkpointer) writeNow(name string, ck *Checkpoint) error {
	c.drain()
	var res writeResult
	s := c.encode(name, ck)
	s.done = &res
	c.enqueue(s)
	c.lock()
	for !res.finished {
		c.freed.Wait()
	}
	c.mu.Unlock()
	return res.err
}

// queuePartial encodes a round's partial checkpoint and hands it to the
// writer without waiting; sp is the round's fl.checkpoint span, ended once
// the file is durable.
func (c *Checkpointer) queuePartial(ck *Checkpoint, folds int, sp obs.Span) {
	obs.M.FLCheckpointPartials.Inc()
	s := c.encode(partialName(ck.Partial.Round, folds), ck)
	s.sp, s.folds = sp, folds
	c.enqueue(s)
}

// WriteBoundary persists a round-boundary checkpoint and prunes old files.
func (c *Checkpointer) WriteBoundary(ck *Checkpoint) error {
	if err := c.writeNow(boundaryName(ck.NextRound), ck); err != nil {
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
	return c.writeNow(partialName(ck.Partial.Round, folds), ck)
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
