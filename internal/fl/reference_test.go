package fl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// The reference round (ROADMAP 7(b)'s oracle): the round the paper
// describes, written the slow way — serial, allocating, no free list, no
// shards, no window, no checkpoints — and a seeded sweep that drives the
// production server and this one over the same schedules of drops, wire
// failures, malformed updates, quorums, fold and window shapes, rules and
// kill-then-resume points. Whatever the production loop does to get there,
// it must end on the same bits and the same telemetry.

// referenceRound runs round t over cohort against m.
func referenceRound(m *nn.Sequential, cohort []Participant, drop DropPolicy, agg Aggregator, quorum float64, t int) RoundResult {
	res := RoundResult{Round: t}
	global := m.ParamsVector()
	var active []Participant
	for _, p := range cohort {
		res.Selected = append(res.Selected, p.ID())
		if drop != nil && drop.Dropped(p.ID(), t) {
			res.Dropped = append(res.Dropped, p.ID())
			continue
		}
		active = append(active, p)
	}
	var deltas [][]float64
	for _, p := range active {
		var d []float64
		var err error
		if fp, ok := p.(FallibleParticipant); ok {
			d, err = fp.TryLocalUpdate(context.Background(), global, t)
		} else {
			d = p.LocalUpdate(global, t)
		}
		if err == nil && len(d) != len(global) {
			err = &UpdateLengthError{Got: len(d), Want: len(global)}
		}
		if err != nil {
			res.Dropped = append(res.Dropped, p.ID())
			if res.Errs == nil {
				res.Errs = make(map[int]error)
			}
			res.Errs[p.ID()] = err
			continue
		}
		res.Completed = append(res.Completed, p.ID())
		deltas = append(deltas, d)
	}
	need := 1
	if quorum > 0 {
		need = max(1, int(math.Ceil(quorum*float64(len(cohort)))))
	}
	if len(deltas) < need {
		return res
	}
	m.AddDeltaVector(1, agg.Aggregate(deltas))
	res.Applied = true
	return res
}

// at keys a schedule entry by client and round.
type at struct{ id, round int }

// schedDrop is a stateless DropPolicy over a fixed (client, round) set.
type schedDrop map[at]bool

func (d schedDrop) Dropped(id, round int) bool { return d[at{id, round}] }

// schedClient is a stateless participant: its delta is a function of every
// element of the global it is handed (echoDelta), written over a free-list
// vector, so a resumed or recycled round that read anything stale diverges.
// On scheduled rounds it fails on the wire or answers one element short.
type schedClient struct {
	id          int
	fail, short map[at]bool
}

var _ FallibleParticipant = (*schedClient)(nil)

func (c *schedClient) ID() int { return c.id }
func (c *schedClient) LocalUpdate(global []float64, round int) []float64 {
	d, _ := c.TryLocalUpdate(context.Background(), global, round)
	return d
}
func (c *schedClient) TryLocalUpdate(_ context.Context, global []float64, round int) ([]float64, error) {
	if c.fail[at{c.id, round}] {
		return nil, errWire
	}
	n := len(global)
	if c.short[at{c.id, round}] {
		n--
	}
	d := wire.GetFloat64s(n)
	echoDelta(d, global[:n], c.id, round)
	return d, nil
}

// schedule is one cell of the sweep.
type schedule struct {
	clients, cohort, rounds int
	drop, fail, short       map[at]bool
	quorum                  float64
	streaming               bool
	window, shards, workers int
	rule                    string // "mean" or "batch-only"
	kill                    CrashPoint
	killRound, killFolds    int
}

func (sc schedule) String() string {
	return fmt.Sprintf("clients=%d cohort=%d quorum=%v streaming=%v window=%d shards=%d workers=%d rule=%s kill=%d@%d/%d drop=%v fail=%v short=%v",
		sc.clients, sc.cohort, sc.quorum, sc.streaming, sc.window, sc.shards, sc.workers, sc.rule,
		sc.kill, sc.killRound, sc.killFolds, sc.drop, sc.fail, sc.short)
}

func (sc schedule) aggregator() Aggregator {
	if sc.rule == "batch-only" {
		return batchOnlyAgg{}
	}
	return MeanAggregator{}
}

func (sc schedule) participants() []Participant {
	parts := make([]Participant, sc.clients)
	for i := range parts {
		parts[i] = &schedClient{id: i, fail: sc.fail, short: sc.short}
	}
	return parts
}

const scheduleSeed = 131

// production builds the server under test; dir is its checkpoint directory.
func (sc schedule) production(template *nn.Sequential, dir string) *Server {
	cfg := Config{Rounds: sc.rounds, SelectPerRound: sc.cohort, Quorum: sc.quorum,
		Streaming: sc.streaming, StreamWindow: sc.window, Shards: sc.shards}
	s := NewServer(template, sc.participants(), cfg, scheduleSeed)
	s.Agg = sc.aggregator()
	s.Drop = schedDrop(sc.drop)
	// No fsync: the sweep writes thousands of checkpoints and crashes only
	// in process.
	s.SetCheckpointer(&Checkpointer{Dir: dir, EveryFolds: 1,
		WriteFile: func(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }})
	return s
}

// runProduction drives the server under test through the schedule — killed
// at the scripted point, if it is ever reached, and resumed by a fresh
// server from whatever the first left on disk — and returns the final
// parameters with the last result reported for every round.
func (sc schedule) runProduction(t *testing.T, template *nn.Sequential) ([]float64, []RoundResult, int) {
	t.Helper()
	prev := parallel.SetWorkers(sc.workers)
	defer parallel.SetWorkers(prev)
	dir := t.TempDir()
	results := make([]RoundResult, sc.rounds)
	s := sc.production(template, dir)
	next, resumedAt := 0, -1
	if sc.kill != 0 {
		crashAt(s, sc.kill, sc.killRound, sc.killFolds)
	}
	for r := 0; r < sc.rounds; r++ {
		died := func() (died bool) {
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(crashSentinel); !ok {
						panic(rec)
					}
					died = true
				}
			}()
			results[r] = s.RoundDetail(r)
			return false
		}()
		if !died {
			continue
		}
		s = sc.production(template, dir)
		var err error
		if next, _, err = s.ResumeLatest(dir); err != nil {
			t.Fatalf("%v: resume: %v", sc, err)
		}
		resumedAt = next
		for r = next; r < sc.rounds; r++ {
			results[r] = s.RoundDetail(r)
		}
	}
	return s.Model.ParamsVector(), results, resumedAt
}

// runReference is the same federation, uninterrupted, on referenceRound.
// Round r's cohort is the first sc.cohort places of a Fisher–Yates shuffle
// of the population, drawn from the round's own key.
func (sc schedule) runReference(template *nn.Sequential) ([]float64, []RoundResult) {
	m := template.Clone()
	parts := sc.participants()
	var results []RoundResult
	for r := 0; r < sc.rounds; r++ {
		cohort := parts
		if sc.cohort > 0 && sc.cohort < len(parts) {
			rng := participantRNG(selectDomain, scheduleSeed, uint64(r))
			shuffled := append([]Participant(nil), parts...)
			for i := 0; i < sc.cohort; i++ {
				j := i + rng.Intn(len(parts)-i)
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			}
			cohort = shuffled[:sc.cohort]
		}
		results = append(results, referenceRound(m, cohort, schedDrop(sc.drop), sc.aggregator(), sc.quorum, r))
	}
	return m.ParamsVector(), results
}

// randomSchedule draws one cell.
func randomSchedule(rng *rand.Rand) schedule {
	pick := func(vs ...int) int { return vs[rng.Intn(len(vs))] }
	sc := schedule{
		clients:   4 + rng.Intn(6),
		rounds:    3,
		quorum:    []float64{0, 0.5, 0.9}[rng.Intn(3)],
		streaming: rng.Intn(3) > 0,
		shards:    pick(1, 3, 8),
		workers:   pick(1, 2, 8),
		rule:      []string{"mean", "batch-only"}[rng.Intn(2)],
		drop:      map[at]bool{}, fail: map[at]bool{}, short: map[at]bool{},
	}
	sc.cohort = pick(0, sc.clients-1, sc.clients/2+1)
	cohort := sc.cohort
	if cohort == 0 {
		cohort = sc.clients
	}
	sc.window = pick(1, 2, cohort)
	// Failure density: none, a minority, or enough to sink a quorum.
	density := []float64{0, 0.15, 0.45}[rng.Intn(3)]
	for id := 0; id < sc.clients; id++ {
		for r := 0; r < sc.rounds; r++ {
			if rng.Float64() < density {
				[]map[at]bool{sc.drop, sc.fail, sc.short}[rng.Intn(3)][at{id, r}] = true
			}
		}
	}
	if rng.Intn(3) > 0 {
		sc.kill = CrashPoint(1 + rng.Intn(3))
		sc.killRound = rng.Intn(sc.rounds)
		if sc.kill == CrashMidCollection {
			sc.killFolds = 1 + rng.Intn(cohort)
		}
	}
	return sc
}

// TestProductionRoundsMatchReferenceRounds is the sweep. A kill point the
// round never reaches (a fold count past the survivors, a post-quorum kill
// in a discarded round) simply leaves the run uninterrupted.
func TestProductionRoundsMatchReferenceRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	template := nn.NewSequential(
		nn.NewDense("d1", 12, 9, rng), nn.NewReLU("r1"), nn.NewDense("d2", 9, 4, rng))
	// The cells no other suite reaches, then the random ones.
	cells := []schedule{
		{clients: 6, rounds: 3, quorum: 0.5, streaming: true, window: 2, shards: 3, workers: 2,
			rule: "mean", kill: CrashMidCollection, killRound: 1, killFolds: 2,
			fail: map[at]bool{{1, 1}: true}, drop: map[at]bool{{4, 1}: true}},
		{clients: 6, rounds: 3, quorum: 0.5, streaming: true, window: 1, shards: 8, workers: 8,
			rule: "mean", kill: CrashPostQuorumPreApply, killRound: 2},
		{clients: 5, rounds: 3, quorum: 0.9, streaming: true, window: 2, shards: 3, workers: 2,
			rule: "batch-only", fail: map[at]bool{{0, 1}: true, {2, 1}: true, {3, 2}: true}},
		{clients: 5, rounds: 3, quorum: 0.5, streaming: true, window: 5, shards: 1, workers: 8,
			rule: "batch-only", kill: CrashMidCollection, killRound: 1, killFolds: 3,
			short: map[at]bool{{1, 0}: true}, fail: map[at]bool{{4, 2}: true}},
		{clients: 4, rounds: 3, quorum: 0, window: 1, shards: 1, workers: 1, rule: "mean",
			drop: map[at]bool{{0, 0}: true, {1, 0}: true, {2, 0}: true, {3, 0}: true}},
	}
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for i := 0; i < trials; i++ {
		cells = append(cells, randomSchedule(rng))
	}
	resumes, discarded := 0, 0
	for _, sc := range cells {
		want, wantRounds := sc.runReference(template)
		got, gotRounds, resumedAt := sc.runProduction(t, template)
		if resumedAt >= 0 {
			resumes++
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v: param %d = %v, reference %v", sc, i, got[i], want[i])
			}
		}
		window := sc.window
		if !sc.streaming || sc.rule == "batch-only" {
			window = 0
		}
		for r, g := range gotRounds {
			w := wantRounds[r]
			if !w.Applied {
				discarded++
			}
			if !sameInts(g.Selected, w.Selected) || !sameInts(g.Completed, w.Completed) ||
				!sameInts(g.Dropped, w.Dropped) || g.Applied != w.Applied {
				t.Fatalf("%v: round %d: %+v, reference %+v", sc, r, g, w)
			}
			// A resumed round knows the dropouts its checkpoint recorded by
			// id only; everywhere else the errors are the reference's.
			for id, err := range g.Errs {
				if w.Errs[id] == nil || err.Error() != w.Errs[id].Error() {
					t.Fatalf("%v: round %d: client %d failed with %v, reference %v", sc, r, id, err, w.Errs[id])
				}
			}
			if r != resumedAt && len(g.Errs) != len(w.Errs) {
				t.Fatalf("%v: round %d: errors %v, reference %v", sc, r, g.Errs, w.Errs)
			}
			if g.PeakInFlight > window {
				t.Fatalf("%v: round %d: PeakInFlight=%d, bound %d", sc, r, g.PeakInFlight, window)
			}
		}
	}
	t.Logf("%d schedules, %d killed and resumed, %d rounds discarded below quorum", len(cells), resumes, discarded)
	if resumes == 0 || discarded == 0 {
		t.Fatal("the sweep never resumed a run or never discarded a round")
	}
}
