package transport

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// The kill-and-restart chaos suite (DESIGN.md §7): a coordinator driving
// a wire-served federation is killed at scripted durability-critical
// instants — before any fold, mid-collection, after quorum but before the
// apply — and restarted as a fresh process image that resumes from its
// checkpoint directory. The resumed run must finish bit-identical to an
// uninterrupted in-process run that drops the same faulty client by
// policy, across worker counts and streaming shard counts. This is the wire-served extension of internal/fl's
// TestKillRestartBitIdentity: here the participants live behind HTTP
// servers that keep running while the coordinator dies, one client faults
// every exchange, and the restarted coordinator talks to the same fleet
// through brand-new RemoteClients.

// restartCfg is the suite's streaming round configuration.
func restartCfg(shards int) fl.Config {
	return fl.Config{Rounds: 5, SelectPerRound: 6, Quorum: 0.5,
		Streaming: true, Shards: shards, StreamWindow: 2}
}

// restartTemplate is the small fixed-architecture model the suite trains;
// every call is bit-identical.
func restartTemplate() *nn.Sequential {
	return nn.NewSmallCNN(nn.Input{C: 1, H: 8, W: 8}, 4, rand.New(rand.NewSource(7)))
}

// restartParts builds the population: 10 synthetic participants and three
// real fl.Clients training the template on their own shards. Both kinds are
// pure functions of (seed, id, global, round) — what makes a resumed round's
// re-collection bit-identical, and a request that outlived its killed
// coordinator harmless (see fl.Server.ResumeFrom).
func restartParts(template *nn.Sequential) []fl.Participant {
	parts := make([]fl.Participant, 13)
	for i := range parts {
		parts[i] = &fl.SyntheticClient{Id: i, Seed: 11}
	}
	for i := 10; i < len(parts); i++ {
		parts[i] = fl.NewClient(i, restartShard(int64(i)), template, fl.Config{}, 20+int64(i))
	}
	return parts
}

// restartShard is a real client's shard at the template's geometry: 24
// random 8×8 images over its four classes, a pure function of seed.
func restartShard(seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset.Dataset{Shape: dataset.Shape{C: 1, H: 8, W: 8}, Classes: 4}
	for i := 0; i < 24; i++ {
		x := make([]float64, d.Shape.Elems())
		for j := range x {
			x[j] = rng.Float64()
		}
		d.Samples = append(d.Samples, dataset.Sample{X: x, Label: i % 4})
	}
	return d
}

// restartFaulty is the client whose every exchange faults on the wire runs
// and who is dropped by policy in the reference run.
const restartFaulty = 3

// serveRestartFleet serves the participants over loopback HTTP,
// surviving coordinator "deaths" like a real fleet would. The faults are
// instant failures (resets, 500s) rather than hangs: the subject here is
// checkpoint durability, and hang handling is already pinned by the round
// -timeout chaos tests.
func serveRestartFleet(t *testing.T, template *nn.Sequential) (addrs []string, shutdown func()) {
	t.Helper()
	var stops []func()
	for _, p := range restartParts(template) {
		addr, stop := serveOne(p, template, nil)
		stops = append(stops, stop)
		addrs = append(addrs, addr)
	}
	return addrs, func() {
		for _, stop := range stops {
			stop()
		}
	}
}

// newCoordinator builds a coordinator process image: fresh RemoteClients
// against the running fleet (the faulty one with its injector reinstalled,
// as a restarted binary would) and a checkpointing fl.Server.
func newCoordinator(template *nn.Sequential, addrs []string, cfg fl.Config, dir string) *fl.Server {
	remote := make([]fl.Participant, len(addrs))
	for i, addr := range addrs {
		opts := []RemoteOption{}
		if i == restartFaulty {
			opts = append(opts,
				WithRetryPolicy(chaosRetry()),
				WithTransport(NewFaultInjector(AlwaysFail{FaultConnError, FaultHTTP500})))
		}
		remote[i] = NewRemoteClient(i, addr, opts...)
	}
	s := fl.NewServer(template, remote, cfg, 77)
	if dir != "" {
		s.SetCheckpointer(&fl.Checkpointer{Dir: dir, EveryFolds: 1})
	}
	return s
}

// wireCrash is the sentinel the scripted CrashHook panics with; recovering
// it models a SIGKILL of the coordinator at that exact instant.
type wireCrash struct {
	point fl.CrashPoint
	round int
	folds int
}

// crashCoordinatorAt arms the kill, firing once at the given position.
func crashCoordinatorAt(s *fl.Server, point fl.CrashPoint, round, folds int) {
	fired := false
	s.CrashHook = func(p fl.CrashPoint, r, f int) {
		if fired || p != point || r != round || (point != fl.CrashPostQuorumPreApply && f != folds) {
			return
		}
		fired = true
		panic(wireCrash{p, r, f})
	}
}

// runCoordinatorUntilCrash drives rounds until the scripted kill fires.
func runCoordinatorUntilCrash(t *testing.T, s *fl.Server, rounds int) (crashed bool) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		died := func() (died bool) {
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(wireCrash); !ok {
						panic(rec)
					}
					died = true
				}
			}()
			s.RoundDetail(r)
			return false
		}()
		if died {
			return true
		}
	}
	return false
}

// TestChaosKillRestartWireBitIdentity sweeps the kill-and-restart matrix:
// workers 1/2/8 × streaming shards 1/8/64, the kill point rotating across
// the nine combinations. Every resumed run must match the single
// uninterrupted drop-equivalent reference bit for bit — which
// simultaneously pins that checkpoint resume, shard count, worker count
// and wire faults all leave the arithmetic untouched.
func TestChaosKillRestartWireBitIdentity(t *testing.T) {
	template := restartTemplate()
	const rounds = 5

	// Every kill lands in round 1, whose cohort has real clients in it.
	const killRound = 1

	// Reference: uninterrupted, in-process, faulty client dropped by policy.
	ref := fl.NewServer(template, restartParts(template), restartCfg(4), 77)
	ref.Drop = dropClients{restartFaulty: true}
	for r := 0; r < rounds; r++ {
		sel := ref.RoundDetail(r).Selected
		if r == killRound && !slices.ContainsFunc(sel, func(id int) bool { return id >= 10 }) {
			t.Fatalf("round %d selects no real client: %v", r, sel)
		}
	}
	refParams := ref.Model.ParamsVector()

	kills := []struct {
		name  string
		point fl.CrashPoint
		round int
		folds int
	}{
		{"pre-fold", fl.CrashPreFold, killRound, 0},
		{"mid-collection", fl.CrashMidCollection, killRound, 1},
		{"post-quorum-pre-apply", fl.CrashPostQuorumPreApply, killRound, 0},
	}
	combo := 0
	for _, w := range []int{1, 2, 8} {
		for _, shards := range []int{1, 8, 64} {
			kill := kills[combo%len(kills)]
			combo++
			name := fmt.Sprintf("workers=%d/shards=%d/%s", w, shards, kill.name)
			t.Run(name, func(t *testing.T) {
				prev := parallel.SetWorkers(w)
				defer parallel.SetWorkers(prev)
				addrs, shutdown := serveRestartFleet(t, template)
				defer shutdown()
				dir := t.TempDir()
				cfg := restartCfg(shards)

				s := newCoordinator(template, addrs, cfg, dir)
				crashCoordinatorAt(s, kill.point, kill.round, kill.folds)
				if !runCoordinatorUntilCrash(t, s, rounds) {
					t.Fatal("scripted coordinator kill never fired")
				}

				// Restart: a fresh coordinator image against the same fleet.
				res := newCoordinator(template, addrs, cfg, dir)
				next, resumed, err := res.ResumeLatest(dir)
				if err != nil {
					t.Fatal(err)
				}
				if !resumed {
					t.Fatal("no checkpoint found after the kill")
				}
				for r := next; r < rounds; r++ {
					res.RoundDetail(r)
				}
				assertSameParams(t, name, res.Model.ParamsVector(), refParams)
			})
		}
	}
}

// TestChaosRestartMidRoundRecordsWireDrops pins the telemetry half of a
// resumed interrupted round: the wire dropout recorded before the kill
// stays recorded after resume (from the checkpoint), the remaining cohort
// is re-collected, and the round's final telemetry matches the
// uninterrupted drop-equivalent round's.
func TestChaosRestartMidRoundRecordsWireDrops(t *testing.T) {
	template := restartTemplate()
	const rounds = 3

	ref := fl.NewServer(template, restartParts(template), restartCfg(4), 77)
	ref.Drop = dropClients{restartFaulty: true}
	var refRounds []fl.RoundResult
	for r := 0; r < rounds; r++ {
		refRounds = append(refRounds, ref.RoundDetail(r))
	}

	addrs, shutdown := serveRestartFleet(t, template)
	defer shutdown()
	dir := t.TempDir()
	cfg := restartCfg(8)
	s := newCoordinator(template, addrs, cfg, dir)
	crashCoordinatorAt(s, fl.CrashMidCollection, 1, 2)
	if !runCoordinatorUntilCrash(t, s, rounds) {
		t.Fatal("scripted coordinator kill never fired")
	}
	res := newCoordinator(template, addrs, cfg, dir)
	next, resumed, err := res.ResumeLatest(dir)
	if err != nil || !resumed {
		t.Fatalf("resume: %v (found %v)", err, resumed)
	}
	if next != 1 {
		t.Fatalf("resumed at round %d, want the interrupted round 1", next)
	}
	var got []fl.RoundResult
	for r := next; r < rounds; r++ {
		got = append(got, res.RoundDetail(r))
	}
	for i, g := range got {
		want := refRounds[next+i]
		if !sameIntSlices(g.Selected, want.Selected) ||
			!sameIntSlices(g.Completed, want.Completed) ||
			!sameIntSlices(g.Dropped, want.Dropped) ||
			g.Applied != want.Applied {
			t.Fatalf("round %d: %+v, want %+v", next+i, g, want)
		}
	}
	assertSameParams(t, "resumed-telemetry", res.Model.ParamsVector(),
		ref.Model.ParamsVector())
}
