package fl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
)

// dropAll fails every client.
type dropAll struct{}

func (dropAll) Dropped(int, int) bool { return true }

// dropIDs fails a fixed set of client IDs.
type dropIDs map[int]bool

func (d dropIDs) Dropped(id, _ int) bool { return d[id] }

func TestRoundWithAllClientsDroppedIsNoOp(t *testing.T) {
	_, _, template, cfg := tinySetup(t, 60)
	p := &fakeParticipant{id: 0, delta: ones(template.NumParams())}
	srv := NewServer(template, []Participant{p}, cfg, 61)
	srv.Drop = dropAll{}
	before := srv.Model.ParamsVector()
	ids := srv.RoundDetail(0).Completed
	if len(ids) != 0 {
		t.Fatalf("round reported %d survivors, want 0", len(ids))
	}
	after := srv.Model.ParamsVector()
	for i := range after {
		if after[i] != before[i] {
			t.Fatal("model changed despite total client failure")
		}
	}
}

func TestRoundSkipsDroppedClients(t *testing.T) {
	_, _, template, cfg := tinySetup(t, 62)
	n := template.NumParams()
	parts := []Participant{
		&fakeParticipant{id: 0, delta: ones(n)},
		&fakeParticipant{id: 1, delta: scaled(n, 100)}, // will be dropped
	}
	srv := NewServer(template, parts, cfg, 63)
	srv.Drop = dropIDs{1: true}
	before := srv.Model.ParamsVector()
	ids := srv.RoundDetail(0).Completed
	if len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("survivors %v, want [0]", ids)
	}
	after := srv.Model.ParamsVector()
	for i := range after {
		if after[i] != before[i]+1 {
			t.Fatal("aggregate included the dropped client's delta")
		}
	}
}

// TestRandomDropIsDeterministicPerSeed: a decision is a pure function of
// (Seed, client, round) — equal seeds agree whatever order they are asked
// in, distinct seeds disagree somewhere, and P sets the rate.
func TestRandomDropIsDeterministicPerSeed(t *testing.T) {
	a, b := RandomDrop{P: 0.5, Seed: 1}, RandomDrop{P: 0.5, Seed: 1}
	const clients, rounds = 10, 40
	var forward [clients][rounds]bool
	for id := 0; id < clients; id++ {
		for r := 0; r < rounds; r++ {
			forward[id][r] = a.Dropped(id, r)
		}
	}
	dropped, diverged := 0, false
	for r := rounds - 1; r >= 0; r-- {
		for id := clients - 1; id >= 0; id-- {
			if b.Dropped(id, r) != forward[id][r] {
				t.Fatalf("client %d round %d: RandomDrop differs across equal seeds asked in another order", id, r)
			}
			if forward[id][r] {
				dropped++
			}
			if (RandomDrop{P: 0.5, Seed: 2}).Dropped(id, r) != forward[id][r] {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("distinct seeds made identical decisions")
	}
	if n := clients * rounds; dropped < n/3 || dropped > 2*n/3 {
		t.Fatalf("P=0.5 dropped %d of %d", dropped, n)
	}
}

// TestTrainingSurvivesModerateDropout checks that federated training still
// learns when 30% of client updates are lost each round.
func TestTrainingSurvivesModerateDropout(t *testing.T) {
	if testing.Short() {
		t.Skip("training under dropout is slow")
	}
	train, test, template, cfg := tinySetup(t, 64)
	cfg.Rounds = 12
	cfg.LocalEpochs = 2
	rng := rand.New(rand.NewSource(65))
	// IID shards keep the check about dropout, not non-IID convergence.
	shards := dataset.PartitionKLabel(train, 5, 10, 50, rng)
	var parts []Participant
	for i, shard := range shards {
		parts = append(parts, NewClient(i, shard, template, cfg, int64(70+i)))
	}
	srv := NewServer(template, parts, cfg, 66)
	srv.Drop = RandomDrop{P: 0.3, Seed: 67}
	srv.Train(nil)
	if acc := metrics.Accuracy(srv.Model, test, 0); acc < 0.5 {
		t.Fatalf("training under 30%% dropout reached only %.2f accuracy", acc)
	}
}

// poisoned answers with its SyntheticClient's delta, one coordinate — at,
// or counted from the end when negative — replaced by val.
type poisoned struct {
	*SyntheticClient
	at  int
	val float64
}

func (p poisoned) LocalUpdate(global []float64, round int) []float64 {
	d := p.SyntheticClient.LocalUpdate(global, round)
	d[(p.at+len(d))%len(d)] = p.val
	return d
}

// TestNonFiniteUpdatesAreDropouts: an update with a NaN or an infinity at
// its first or last coordinate is a recorded *NonFiniteUpdateError dropout,
// in batch and streaming rounds, and the round applies on the survivors bit
// for bit as if DropPolicy had excluded that client.
func TestNonFiniteUpdatesAreDropouts(t *testing.T) {
	_, _, template, _ := tinySetup(t, 96)
	n := template.NumParams()
	const bad = 2
	cohort := func(p Participant) []Participant {
		parts := make([]Participant, 5)
		for id := range parts {
			parts[id] = &SyntheticClient{Id: id, Seed: 97}
		}
		if p != nil {
			parts[bad] = p
		}
		return parts
	}
	for _, streaming := range []bool{false, true} {
		cfg := Config{Quorum: 0.5, Streaming: streaming, Shards: 2}
		ref := NewServer(template, cohort(nil), cfg, 98)
		ref.Drop = dropIDs{bad: true}
		if res := ref.RoundDetail(0); !res.Applied {
			t.Fatalf("streaming=%v: reference round not applied: %+v", streaming, res)
		}
		want := ref.Model.ParamsVector()
		for _, val := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, at := range []int{0, -1} {
				name := fmt.Sprintf("streaming=%v %v at %d", streaming, val, at)
				srv := NewServer(template, cohort(poisoned{&SyntheticClient{Id: bad, Seed: 97}, at, val}), cfg, 98)
				res := srv.RoundDetail(0)
				if !res.Applied || len(res.Dropped) != 1 || res.Dropped[0] != bad {
					t.Fatalf("%s: %+v, want client %d dropped and the round applied", name, res, bad)
				}
				var ne *NonFiniteUpdateError
				if !errors.As(res.Errs[bad], &ne) {
					t.Fatalf("%s: dropped with %v, want a NonFiniteUpdateError", name, res.Errs[bad])
				}
				if idx := (at + n) % n; ne.Index != idx || math.Float64bits(ne.Value) != math.Float64bits(val) {
					t.Errorf("%s: error names %v at %d, want %v at %d", name, ne.Value, ne.Index, val, idx)
				}
				for i, v := range srv.Model.ParamsVector() {
					if math.Float64bits(v) != math.Float64bits(want[i]) {
						t.Fatalf("%s: param %d = %v, want %v", name, i, v, want[i])
					}
				}
			}
		}
	}
}

// TestFirstNonFinite checks the blocked scan at every position of vectors
// up to two blocks and a tail long, every block finite but for the value
// placed — including blocks of finite values whose sum overflows.
func TestFirstNonFinite(t *testing.T) {
	for n := 0; n <= 19; n++ {
		huge := make([]float64, n)
		for j := range huge {
			huge[j] = math.MaxFloat64
		}
		if got := firstNonFinite(huge); got != -1 {
			t.Fatalf("%d finite values: %d, want -1", n, got)
		}
		for i := 0; i < n; i++ {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				d := make([]float64, n)
				for j := range d {
					d[j] = math.MaxFloat64 * float64(1-2*(j%2))
				}
				d[i] = bad
				if n > i+1 {
					d[n-1] = math.NaN()
				}
				if got := firstNonFinite(d); got != i {
					t.Fatalf("%v at %d of %d: %d", bad, i, n, got)
				}
			}
		}
	}
}
