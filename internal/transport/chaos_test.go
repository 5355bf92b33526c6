package transport

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// The chaos harness: the buildPopulation federation served over loopback
// HTTP with a deterministic FaultInjector on a minority of clients, either
// client-side (WithTransport) or server-side (SetMiddleware). Every chaos
// run is compared bit for bit against a fault-free run in which the same
// clients are excluded by an in-process DropPolicy — the tentpole
// guarantee that wire failures and policy drops are the same event.

// chaosMode selects which side of the wire injects the faults.
type chaosMode int

const (
	clientSide chaosMode = iota
	serverSide
)

// dropClients is the in-process DropPolicy equivalent of a permanently
// faulty remote client.
type dropClients map[int]bool

func (d dropClients) Dropped(id, _ int) bool { return d[id] }

// chaosSetup rebuilds the buildPopulation fixture from its seeds.
func chaosSetup() (train, test *dataset.Dataset, template *nn.Sequential, cfg fl.Config) {
	train, test = dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 30, TestPerClass: 10, Seed: 50})
	template = nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rand.New(rand.NewSource(51)))
	cfg = fl.Config{Rounds: 2, LocalEpochs: 1, BatchSize: 20, LR: 0.05, Quorum: 0.5}
	return train, test, template, cfg
}

// chaosClients rebuilds the 3-client population (attacker + 2 honest) from
// fixed seeds; every call yields bit-identical initial state.
func chaosClients(train *dataset.Dataset, template *nn.Sequential, cfg fl.Config) []fl.Participant {
	shards := dataset.PartitionKLabelForced(train, 3, 3, 40, rand.New(rand.NewSource(52)), 9, 1)
	poison := dataset.PoisonConfig{
		Trigger:     dataset.PixelPattern(3, train.Shape),
		VictimLabel: 9, TargetLabel: 1,
	}
	return []fl.Participant{
		fl.NewAttacker(0, shards[0], template, cfg, poison, 2, 53),
		fl.NewClient(1, shards[1], template, cfg, 54),
		fl.NewClient(2, shards[2], template, cfg, 55),
	}
}

// chaosRetry keeps permanently-faulty-client retries fast: hangs are cut
// off by the attempt timeout, backoff stays in the low milliseconds. Only
// for clients whose every exchange faults — a 200ms attempt timeout can cut
// off a legitimate training exchange on a slow run (e.g. under -race) three
// times over. Clients expected to recover use recoverRetry instead.
func chaosRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, AttemptTimeout: 200 * time.Millisecond,
		BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
}

// recoverRetry is for clients whose faults end an attempt at once (a reset,
// a truncated response): fast backoff, but a generous attempt timeout so a
// legitimate exchange is never cut off mid-training.
func recoverRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, AttemptTimeout: time.Minute,
		BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
}

// serveChaos puts each participant behind an HTTP server and returns the
// remote stubs. inj maps a participant's slice index to its fault
// injector, installed per mode; faulty clients get the given retry policy.
func serveChaos(t *testing.T, parts []fl.Participant, template *nn.Sequential,
	inj map[int]*FaultInjector, retry RetryPolicy, mode chaosMode) (remote []fl.Participant, shutdown func()) {
	t.Helper()
	var servers []*ClientServer
	for i, p := range parts {
		cs := NewClientServer(p.(interface {
			fl.Participant
			core.ReportClient
		}), template)
		if mode == serverSide && inj[i] != nil {
			cs.SetMiddleware(inj[i].Middleware)
		}
		addr, err := cs.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, cs)
		opts := []RemoteOption{}
		if inj[i] != nil {
			opts = append(opts, WithRetryPolicy(retry))
			if mode == clientSide {
				opts = append(opts, WithTransport(inj[i]))
			}
		}
		remote = append(remote, NewRemoteClient(p.ID(), addr, opts...))
	}
	shutdown = func() {
		for _, s := range servers {
			_ = s.Shutdown(context.Background())
		}
	}
	return remote, shutdown
}

func assertSameParams(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: params length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: param %d = %v, want %v (chaos run diverges from drop-equivalent run)",
				label, i, got[i], want[i])
		}
	}
}

// TestChaosTrainingRoundsMatchDropRun: two training rounds in which client
// 2 (1/3 of the federation) fails every exchange — connection resets,
// HTTP 500s, hangs — must leave bit-identical global parameters and round
// telemetry to a fault-free run dropping client 2 by policy, under both
// injection modes and worker counts 1/2/8.
func TestChaosTrainingRoundsMatchDropRun(t *testing.T) {
	run := func(w int, mode chaosMode, sched Schedule) ([]float64, []fl.RoundResult) {
		prev := parallel.SetWorkers(w)
		defer parallel.SetWorkers(prev)
		train, _, template, cfg := chaosSetup()
		parts := chaosClients(train, template, cfg)
		var remote []fl.Participant
		if sched != nil {
			var shutdown func()
			remote, shutdown = serveChaos(t, parts, template,
				map[int]*FaultInjector{2: NewFaultInjector(sched)}, chaosRetry(), mode)
			defer shutdown()
		}
		var srv *fl.Server
		if sched != nil {
			srv = fl.NewServer(template, remote, cfg, 60)
		} else {
			srv = fl.NewServer(template, parts, cfg, 60)
			srv.Drop = dropClients{2: true}
		}
		var rounds []fl.RoundResult
		for r := 0; r < cfg.Rounds; r++ {
			rounds = append(rounds, srv.RoundDetail(r))
		}
		return srv.Model.ParamsVector(), rounds
	}

	refParams, refRounds := run(1, clientSide, nil)
	for _, res := range refRounds {
		if !res.Applied || len(res.Completed) != 2 || len(res.Dropped) != 1 || res.Dropped[0] != 2 {
			t.Fatalf("reference round telemetry off: %+v", res)
		}
	}
	cases := []struct {
		name    string
		mode    chaosMode
		workers []int
	}{
		{"client-side", clientSide, []int{1, 2, 8}},
		{"server-side", serverSide, []int{8}},
	}
	rotation := AlwaysFail{FaultConnError, FaultHTTP500, FaultHang}
	for _, tc := range cases {
		for _, w := range tc.workers {
			params, rounds := run(w, tc.mode, rotation)
			assertSameParams(t, tc.name, params, refParams)
			for r, res := range rounds {
				want := refRounds[r]
				if !sameIntSlices(res.Completed, want.Completed) ||
					!sameIntSlices(res.Dropped, want.Dropped) ||
					res.Applied != want.Applied {
					t.Fatalf("%s workers=%d round %d: %+v, want %+v", tc.name, w, r, res, want)
				}
				if len(res.Errs) != 1 || res.Errs[2] == nil {
					t.Fatalf("%s workers=%d round %d: errs %v, want one entry for client 2",
						tc.name, w, r, res.Errs)
				}
			}
		}
	}
}

func sameIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestChaosPipelineMinorityFaultyBitIdentical is the acceptance chaos
// test: with 1 of 3 remote clients injecting timeouts (hangs), connection
// resets, HTTP 500s and truncated gob bodies on every exchange, federated
// training followed by the full defense pipeline must complete and be
// bit-identical to the fault-free run that drops the same client —
// across fault rotations (seeds of the schedule) and workers 1/2/8.
func TestChaosPipelineMinorityFaultyBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline chaos run is slow")
	}
	pipeCfg := func() core.PipelineConfig {
		pcfg := core.DefaultPipelineConfig()
		pcfg.FineTuneRounds = 2
		pcfg.FineTunePatience = 5
		pcfg.ReportQuorum = 0.5
		return pcfg
	}
	type out struct {
		params []float64
		rep    core.Report
	}
	wireRun := func(w int, sched Schedule) out {
		prev := parallel.SetWorkers(w)
		defer parallel.SetWorkers(prev)
		train, test, template, cfg := chaosSetup()
		parts := chaosClients(train, template, cfg)
		remote, shutdown := serveChaos(t, parts, template,
			map[int]*FaultInjector{2: NewFaultInjector(sched)}, chaosRetry(), clientSide)
		defer shutdown()
		srv := fl.NewServer(template, remote, cfg, 60)
		srv.Train(nil)
		m := srv.Model.Clone()
		rep := core.RunPipeline(m, fl.ReportClients(remote), srv,
			metrics.NewSuffixEvaluator(test, 0), pipeCfg())
		return out{params: m.ParamsVector(), rep: rep}
	}
	refRun := func() out {
		prev := parallel.SetWorkers(1)
		defer parallel.SetWorkers(prev)
		train, test, template, cfg := chaosSetup()
		parts := chaosClients(train, template, cfg)
		srv := fl.NewServer(template, parts, cfg, 60)
		srv.Drop = dropClients{2: true}
		srv.Train(nil)
		m := srv.Model.Clone()
		// The faulty client never delivers a report, so the equivalent
		// fault-free cohort simply does not contain it.
		rep := core.RunPipeline(m, fl.ReportClients(parts[:2]), srv,
			metrics.NewSuffixEvaluator(test, 0), pipeCfg())
		return out{params: m.ParamsVector(), rep: rep}
	}

	ref := refRun()
	if ref.rep.AccFinal <= 0 {
		t.Fatal("reference pipeline produced no evaluation")
	}
	rotations := []struct {
		name    string
		sched   Schedule
		workers []int
	}{
		{"rotation-a", AlwaysFail{FaultHang, FaultConnError, FaultHTTP500, FaultTruncate}, []int{1, 2, 8}},
		{"rotation-b", AlwaysFail{FaultConnError, FaultTruncate, FaultHTTP500, FaultHang}, []int{8}},
	}
	for _, rot := range rotations {
		for _, w := range rot.workers {
			got := wireRun(w, rot.sched)
			label := rot.name
			assertSameParams(t, label, got.params, ref.params)
			for _, acc := range []struct {
				name      string
				got, want float64
			}{
				{"AccBefore", got.rep.AccBefore, ref.rep.AccBefore},
				{"AccAfterPrune", got.rep.AccAfterPrune, ref.rep.AccAfterPrune},
				{"AccAfterFineTune", got.rep.AccAfterFineTune, ref.rep.AccAfterFineTune},
				{"AccFinal", got.rep.AccFinal, ref.rep.AccFinal},
			} {
				if acc.got != acc.want {
					t.Fatalf("%s workers=%d: %s = %v, want %v", label, w, acc.name, acc.got, acc.want)
				}
			}
			if !sameIntSlices(got.rep.ReportDropouts, []int{2}) {
				t.Fatalf("%s workers=%d: report dropouts %v, want [2]", label, w, got.rep.ReportDropouts)
			}
			if len(ref.rep.ReportDropouts) != 0 {
				t.Fatalf("fault-free reference recorded dropouts: %v", ref.rep.ReportDropouts)
			}
		}
	}
}

// TestChaosTransientFaultRecovers: a fault on an update's first attempt is
// absorbed by the retry loop — no dropout is recorded and training is
// bit-identical to a fault-free run. A connection reset fails before the
// participant is reached; a response truncated on the server comes after
// the participant trained, so the retry trains it again — to the same bits,
// its update being a function of (seed, id, global, round) alone.
func TestChaosTransientFaultRecovers(t *testing.T) {
	run := func(sched Schedule, mode chaosMode) ([]float64, []fl.RoundResult) {
		prev := parallel.SetWorkers(8)
		defer parallel.SetWorkers(prev)
		train, _, template, cfg := chaosSetup()
		parts := chaosClients(train, template, cfg)
		inj := map[int]*FaultInjector{}
		if sched != nil {
			inj[0], inj[1] = NewFaultInjector(sched), NewFaultInjector(sched)
		}
		remote, shutdown := serveChaos(t, parts, template, inj, recoverRetry(), mode)
		defer shutdown()
		srv := fl.NewServer(template, remote, cfg, 60)
		var rounds []fl.RoundResult
		for r := 0; r < cfg.Rounds; r++ {
			rounds = append(rounds, srv.RoundDetail(r))
		}
		return srv.Model.ParamsVector(), rounds
	}
	refParams, _ := run(nil, clientSide)
	for _, tc := range []struct {
		name  string
		fault FaultKind
		mode  chaosMode
	}{
		{"client-side conn-error", FaultConnError, clientSide},
		{"server-side truncate", FaultTruncate, serverSide},
	} {
		// The first attempt of every round faults, its retry succeeds.
		params, rounds := run(Script{"/v1/update": {{Kind: tc.fault}, {}, {Kind: tc.fault}}}, tc.mode)
		assertSameParams(t, tc.name, params, refParams)
		for r, res := range rounds {
			if len(res.Dropped) != 0 || len(res.Errs) != 0 || len(res.Completed) != 3 {
				t.Fatalf("%s: round %d recorded a dropout despite successful retry: %+v", tc.name, r, res)
			}
		}
	}
}

// TestRoundTimeoutReleasesHangingClient: a client that hangs forever is
// cut off by cfg.RoundTimeout — the round deadline cancels the in-flight
// request, records the dropout and returns instead of blocking.
func TestRoundTimeoutReleasesHangingClient(t *testing.T) {
	train, _, template, cfg := chaosSetup()
	cfg.Quorum = 0
	cfg.RoundTimeout = 300 * time.Millisecond
	parts := chaosClients(train, template, cfg)[2:3]
	inj := NewFaultInjector(AlwaysFail{FaultHang})
	var servers []*ClientServer
	cs := NewClientServer(parts[0].(interface {
		fl.Participant
		core.ReportClient
	}), template)
	addr, err := cs.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	servers = append(servers, cs)
	defer func() { _ = servers[0].Shutdown(context.Background()) }()
	// A generous retry policy: only the round deadline can release the hang.
	rc := NewRemoteClient(parts[0].ID(), addr,
		WithRetryPolicy(RetryPolicy{MaxAttempts: 3, AttemptTimeout: time.Minute}),
		WithTransport(inj))
	srv := fl.NewServer(template, []fl.Participant{rc}, cfg, 60)
	start := time.Now()
	res := srv.RoundDetail(0)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("round blocked %v on a hanging client", elapsed)
	}
	if res.Applied || len(res.Completed) != 0 {
		t.Fatalf("hanging-only round applied an update: %+v", res)
	}
	if len(res.Dropped) != 1 || res.Errs[res.Dropped[0]] == nil {
		t.Fatalf("hang not recorded as dropout: %+v", res)
	}
}

// TestFaultSchedulesDeterministic pins the schedule contracts: RandomFaults
// is a pure function of (seed, endpoint, call); Script falls back to the
// empty key and succeeds past its end; AlwaysFail cycles; the injector
// counts exchanges per endpoint.
func TestFaultSchedulesDeterministic(t *testing.T) {
	a := RandomFaults{Seed: 7, P: 0.5}
	b := RandomFaults{Seed: 7, P: 0.5}
	diverged := false
	other := RandomFaults{Seed: 8, P: 0.5}
	for call := 0; call < 200; call++ {
		for _, ep := range []string{"/v1/update", "/v1/ranks"} {
			if a.Fault(ep, call) != b.Fault(ep, call) {
				t.Fatalf("RandomFaults differs across equal seeds at (%s, %d)", ep, call)
			}
			if a.Fault(ep, call) != other.Fault(ep, call) {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("distinct seeds produced identical schedules")
	}

	s := Script{
		"/v1/update": {{Kind: FaultConnError}},
		"":           {{Kind: FaultHTTP500}},
	}
	if s.Fault("/v1/update", 0).Kind != FaultConnError {
		t.Fatal("script missed its scheduled fault")
	}
	if s.Fault("/v1/update", 1).Kind != FaultNone {
		t.Fatal("script faulted past the end of its sequence")
	}
	if s.Fault("/v1/votes", 0).Kind != FaultHTTP500 {
		t.Fatal("script fallback key not applied")
	}

	cyc := AlwaysFail{FaultConnError, FaultHang}
	if cyc.Fault("x", 0).Kind != FaultConnError || cyc.Fault("x", 3).Kind != FaultHang {
		t.Fatal("AlwaysFail does not cycle")
	}

	inj := NewFaultInjector(Script{})
	_ = inj.take("/v1/update")
	_ = inj.take("/v1/update")
	_ = inj.take("/v1/ranks")
	if inj.Calls("/v1/update") != 2 || inj.Calls("/v1/ranks") != 1 {
		t.Fatal("injector call counters wrong")
	}
}
