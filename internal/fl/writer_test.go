package fl

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
)

// hookedClient is a SyntheticClient that calls onUpdate as each of its
// LocalUpdate calls starts.
type hookedClient struct {
	SyntheticClient
	onUpdate func(round int)
}

func (c *hookedClient) LocalUpdate(global []float64, round int) []float64 {
	c.onUpdate(round)
	return c.SyntheticClient.LocalUpdate(global, round)
}

// writerFederation is a resident federation of cohort synthetic clients,
// every one of them in every round, folding under a window of one: the
// client at index i+1 is admitted only once the client at index i has been
// folded, so its LocalUpdate starting says the fold got that far. hook, when
// non-nil, wraps every client.
func writerFederation(cohort int, hook func(id, round int)) *Server {
	template := nn.NewSequential(nn.NewDense("d", 6, 5, rand.New(rand.NewSource(3))),
		nn.NewReLU("r"), nn.NewDense("o", 5, 3, rand.New(rand.NewSource(4))))
	parts := make([]Participant, cohort)
	for i := range parts {
		sc := SyntheticClient{Id: i, Seed: 17}
		if hook == nil {
			parts[i] = &sc
			continue
		}
		parts[i] = &hookedClient{SyntheticClient: sc, onUpdate: func(round int) { hook(sc.Id, round) }}
	}
	return NewServer(template, parts, Config{Streaming: true, StreamWindow: 1}, 23)
}

// pendingWrites reports whether the checkpointer holds a checkpoint that is
// not yet written.
func (c *Checkpointer) pendingWrites() bool {
	c.lock()
	defer c.mu.Unlock()
	return len(c.queue) > 0 || c.slots[0].busy || c.slots[1].busy
}

// TestCheckpointWriteOverlapsFold: a round hands its partial checkpoints to
// the writer and folds on while they are written. The seam holds partial k
// open until the client at index k — the next one after the partial — has
// been folded, which a round that waited on its own writes never gets to.
func TestCheckpointWriteOverlapsFold(t *testing.T) {
	const cohort, k = 6, 2
	folded := make(chan struct{})
	var once sync.Once
	s := writerFederation(cohort, func(id, round int) {
		if id == k+1 {
			once.Do(func() { close(folded) })
		}
	})
	c := &Checkpointer{Dir: t.TempDir(), EveryFolds: 1}
	c.WriteFile = func(path string, data []byte) error {
		if filepath.Base(path) == partialName(0, k) {
			select {
			case <-folded:
			case <-time.After(5 * time.Second):
				t.Errorf("the round folded nothing while partial %d was written", k)
			}
		}
		return AtomicWriteFile(path, data)
	}
	s.SetCheckpointer(c)
	if res := s.RoundDetail(0); !res.Applied || len(res.Completed) != cohort {
		t.Fatalf("round: %+v", res)
	}
	if _, err := os.Stat(filepath.Join(c.Dir, partialName(0, k))); err != nil {
		t.Errorf("the held partial never landed: %v", err)
	}
}

// TestKillRestartWithCheckpointInFlight: the process dies while a partial
// checkpoint is half written — its temp file torn on disk, the round folded
// past it and the next partial encoded behind it. The restarted server
// skips the temp file, resumes from the partial before the torn one and
// finishes bit-identical to the uninterrupted run. The kill is a
// participant's panic, not a CrashHook: a hook fires only once the writer
// has drained.
func TestKillRestartWithCheckpointInFlight(t *testing.T) {
	const cohort, rounds, killRound, k = 6, 4, 2, 3
	ref := writerFederation(cohort, nil)
	for r := 0; r < rounds; r++ {
		ref.RoundDetail(r)
	}
	want := ref.Model.ParamsVector()

	dir := t.TempDir()
	movedOn := make(chan struct{})
	var once sync.Once
	s := writerFederation(cohort, func(id, round int) {
		if round == killRound && id == k+1 {
			once.Do(func() { close(movedOn) })
			panic(crashSentinel{CrashMidCollection, round, k + 1})
		}
	})
	// After the kill the dead process writes nothing: the writer is released
	// only on cleanup, and every write then fails.
	release, dead := make(chan struct{}), make(chan struct{})
	c := &Checkpointer{Dir: dir, EveryFolds: 1}
	c.WriteFile = func(path string, data []byte) error {
		select {
		case <-dead:
			return errors.New("process killed")
		default:
		}
		if filepath.Base(path) != partialName(killRound, k) {
			return AtomicWriteFile(path, data)
		}
		if err := os.WriteFile(filepath.Join(dir, ".tmp-ckpt-inflight"), data[:len(data)/2], 0o644); err != nil {
			return err
		}
		select {
		case <-movedOn:
		case <-time.After(5 * time.Second):
			t.Errorf("the round never moved on while partial %d was written", k)
			return errors.New("injected failure")
		}
		<-release
		return errors.New("killed mid-write")
	}
	s.SetCheckpointer(c)
	t.Cleanup(func() {
		close(dead)
		close(release)
		c.drain()
	})
	if completed, crashed := runUntilCrash(t, s, rounds); !crashed || completed != killRound {
		t.Fatalf("killed after %d rounds (crashed %v), want %d", completed, crashed, killRound)
	}

	res := writerFederation(cohort, nil)
	res.SetCheckpointer(&Checkpointer{Dir: dir, EveryFolds: 1})
	next, resumed, err := res.ResumeLatest(dir)
	if err != nil || !resumed {
		t.Fatalf("resume: found %v, %v", resumed, err)
	}
	if p := res.pendingPartial; next != killRound || p == nil || p.FoldN != k-1 {
		t.Fatalf("resumed at round %d (partial %v), want round %d's partial after %d folds",
			next, p != nil, killRound, k-1)
	}
	for r := next; r < rounds; r++ {
		res.RoundDetail(r)
	}
	for i, v := range res.Model.ParamsVector() {
		if v != want[i] {
			t.Fatalf("param %d = %v, want %v (resumed run diverged)", i, v, want[i])
		}
	}
}

// TestCheckpointSequencePerRound pins which files each round writes, and
// when. A round skips the partial after its last fold when its boundary is
// due — the boundary replaces it — and keeps it otherwise. A round's
// partials are durable before its aggregate is applied and before a
// CrashHook fires (which drains, so the other cases install none), and
// RoundDetail returns with nothing queued and no temp file left, a round
// below quorum too. A failed partial is counted, the
// round carries on, and LastPath names the last file written. Every
// partial's write is slowed, so a round that stopped waiting for it shows.
func TestCheckpointSequencePerRound(t *testing.T) {
	const cohort, everyFolds, rounds = 6, 3, 3
	cases := []struct {
		name        string
		everyRounds int
		fail        string // a partial whose write fails
		belowQuorum bool   // client 4 drops and the quorum is the whole cohort
		want        [][]string
	}{
		{"boundary every round", 1, "", false, [][]string{
			{partialName(0, 0), partialName(0, 3), boundaryName(1)},
			{partialName(1, 0), partialName(1, 3), boundaryName(2)},
			{partialName(2, 0), partialName(2, 3), boundaryName(3)},
		}},
		{"boundary every second round", 2, "", false, [][]string{
			{partialName(0, 0), partialName(0, 3), partialName(0, 6)},
			{partialName(1, 0), partialName(1, 3), boundaryName(2)},
			{partialName(2, 0), partialName(2, 3), partialName(2, 6)},
		}},
		{"failed partial", 1, partialName(1, 3), false, [][]string{
			{partialName(0, 0), partialName(0, 3), boundaryName(1)},
			{partialName(1, 0), boundaryName(2)},
			{partialName(2, 0), partialName(2, 3), boundaryName(3)},
		}},
		{"below quorum", 2, "", true, [][]string{
			{partialName(0, 0), partialName(0, 3)},
			{partialName(1, 0), partialName(1, 3), boundaryName(2)},
			{partialName(2, 0), partialName(2, 3)},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := writerFederation(cohort, nil)
			if tc.belowQuorum {
				s.Drop, s.cfg.Quorum = dropIDs{4: true}, 1
			}
			dir := t.TempDir()
			c := &Checkpointer{Dir: dir, EveryRounds: tc.everyRounds, EveryFolds: everyFolds}
			var wrote []string // appended by the writer, read once RoundDetail has returned
			c.WriteFile = func(path string, data []byte) error {
				name := filepath.Base(path)
				if name == tc.fail {
					return errors.New("injected failure")
				}
				ck, err := DecodeCheckpoint(data)
				if err != nil {
					return err
				}
				if ck.Partial != nil {
					// The round must not apply its aggregate under a partial.
					time.Sleep(5 * time.Millisecond)
					if got := nn.AppendModelState(nil, s.Model); string(got) != string(ck.Model) {
						t.Errorf("%s: the model moved before the partial was durable", name)
					}
				}
				wrote = append(wrote, name)
				return AtomicWriteFile(path, data)
			}
			s.SetCheckpointer(c)
			if tc.everyRounds == 1 && tc.fail == "" {
				s.CrashHook = func(p CrashPoint, r, f int) {
					if c.pendingWrites() {
						t.Errorf("round %d: crash point %d after %d folds fired with a write queued", r, p, f)
					}
				}
			}
			errs0 := obs.M.FLCheckpointWriteErrors.Value()
			for r := 0; r < rounds; r++ {
				wrote = wrote[:0]
				if res := s.RoundDetail(r); res.Applied == tc.belowQuorum {
					t.Fatalf("round %d applied %v, below quorum %v", r, res.Applied, tc.belowQuorum)
				}
				if fmt.Sprint(wrote) != fmt.Sprint(tc.want[r]) {
					t.Errorf("round %d wrote %v, want %v", r, wrote, tc.want[r])
				}
				if c.pendingWrites() {
					t.Errorf("round %d returned with a write queued", r)
				}
				if tmp, _ := filepath.Glob(filepath.Join(dir, ".tmp-ckpt-*")); len(tmp) > 0 {
					t.Errorf("round %d left temp files %v", r, tmp)
				}
				if last := filepath.Base(c.LastPath()); len(wrote) > 0 && last != wrote[len(wrote)-1] {
					t.Errorf("round %d: LastPath %s, last written %s", r, last, wrote[len(wrote)-1])
				}
			}
			wantErrs := uint64(0)
			if tc.fail != "" {
				wantErrs = 1
			}
			if got := obs.M.FLCheckpointWriteErrors.Value() - errs0; got != wantErrs {
				t.Errorf("%d failed writes counted, want %d", got, wantErrs)
			}
		})
	}
}
