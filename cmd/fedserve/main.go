// Command fedserve runs the federated aggregation server of one scenario,
// then (optionally) the paper's defense pipeline (Algorithm 1) over its
// clients, and prints the per-round benign test accuracy (TA) and attack
// success rate (AA) and a stage-by-stage defense report.
//
// Where the clients live is the only thing that differs between its modes:
//
//   - neither -clients nor -fleet: the scenario's participants are built in
//     this process (eval.Build);
//   - -clients: remote fedclient processes started with the same scenario
//     flags (see cmd/fedclient for a full example), listed as host:port in
//     index order; participant i is reached at /c/i on the i-th
//     (transport.FleetClientAddr), so a misplaced address is refused with a
//     404 and its participant drops out rather than answering under another
//     index;
//   - -fleet: a fedload process hosting -fleet-count synthetic clients. Their
//     updates carry no task to evaluate or defend, so the rounds log no
//     TA/AA and the run closes with a report-collection phase (one RAP and
//     one MVP sweep) instead of the defense; -mode none skips it.
//
// Every mode runs the same round loop and samples -select clients per
// round, and every round folds each update into fl.MeanAggregator's running
// sum as it arrives. Remote rounds bound how many updates are in flight by
// -stream-window; in-process rounds train one client per core without a
// window, which keeps every core busy. With -checkpoint-dir the server
// writes checkpoints and resumes from the newest one the directory holds;
// a checkpoint of another scenario (every scenario flag but -rounds, which
// a resumed run may extend), seed or population, or one past -rounds,
// exits 1. So does a defense or fleet report sweep whose
// reports miss -quorum, after one "serve: defense failed" line.
//
// While a run is in flight, -ops-addr exposes the live diagnostics
// surface: /metrics (text or JSON snapshot of the obs registry),
// /healthz, /trace (Chrome trace-event JSON of the recent span ring),
// /rounds (the flight recorder's recent audit records), and
// net/http/pprof. -log-level/-log-json control the structured event
// stream; a final metrics snapshot prints on exit. -flight-recorder
// appends the per-round audit trail to a JSONL file (DESIGN.md §10);
// FEDCLEANSE_TRACE_SEED pins the trace/span ID sequence for reproducible
// runs.
//
// Example (train the MNIST 9→2 task in-process, then defend):
//
//	fedserve -dataset mnist -victim 9 -target 2 -mode all -method mvp
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/eval"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/profiling"
	"github.com/fedcleanse/fedcleanse/internal/transport"
)

func main() {
	scen := eval.AddScenarioFlags()
	clients := flag.String("clients", "", "comma-separated fedclient addresses (host:port), in participant-index order: position i must be the fedclient started with -index i (empty = in-process participants)")
	fleet := flag.String("fleet", "", "fedload fleet address (host:port); replaces the participants with a registered population of fleet-hosted clients")
	fleetCount := flag.Int("fleet-count", 10000, "registered population size in fleet mode")
	sel := flag.Int("select", 0, "clients sampled per round (0 = all)")
	streamWindow := flag.Int("stream-window", 0, "how many clients a round over -clients or -fleet trains concurrently (0 = twice the worker count)")
	mode := flag.String("mode", "all", "defense after training: fp, aw, fp+aw, all or none (with -fleet: all collects reports, none skips it)")
	method := flag.String("method", "mvp", "pruning method: rap or mvp")
	voteRate := flag.Float64("rate", 0.5, "MVP pruning rate p")
	quorum := flag.Float64("quorum", 0.5, "fraction of clients that must respond for a round to apply (0 = any)")
	roundTimeout := flag.Duration("round-timeout", 5*time.Minute, "deadline for one aggregation round (0 = none)")
	retries := flag.Int("retries", 3, "attempts per remote call")
	attemptTimeout := flag.Duration("attempt-timeout", time.Minute, "deadline per remote call attempt")
	opsAddr := flag.String("ops-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	ckptDir := flag.String("checkpoint-dir", "", "persist round-state checkpoints into this directory and resume from the newest one it holds (empty = off)")
	ckptEvery := flag.Int("checkpoint-every", 1, "write a boundary checkpoint every N completed rounds")
	ckptFolds := flag.Int("checkpoint-folds", 0, "also write a partial checkpoint every N folded updates inside a round (0 = boundaries only)")
	flightPath := flag.String("flight-recorder", "", "append one JSONL audit record per applied round to this file (empty = off); the recent records are also served at /rounds on -ops-addr")
	logf := obs.AddLogFlags()
	prof := profiling.AddFlags()
	flag.Parse()
	usage := func(msg string) {
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(2)
	}
	if *fleetCount < 1 {
		usage("-fleet-count must be at least 1")
	}
	addrs := strings.Split(*clients, ",")
	if *fleet != "" && *clients != "" {
		usage("-clients and -fleet are mutually exclusive")
	}
	// An empty entry would be a client at "http://" that drops out of every
	// round yet counts in the quorum's cohort size.
	if *clients != "" && slices.ContainsFunc(addrs, func(a string) bool { return strings.TrimSpace(a) == "" }) {
		usage("-clients has an empty address")
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *fleet != "" && (set["method"] || set["rate"] || *mode != "all" && *mode != "none") {
		usage("-fleet takes -mode all or none and no -method or -rate: its closing phase is one RAP and one MVP report sweep")
	}
	s, err := scen.Scenario()
	if err != nil {
		usage(err.Error())
	}
	defend := *mode != "none"
	var cfg core.PipelineConfig
	if defend {
		if cfg, err = eval.DefenseMode(*mode); err != nil {
			usage(err.Error())
		}
	}
	switch *method {
	case "rap":
		cfg.Method = core.RAP
	case "mvp":
		cfg.Method = core.MVP
	default:
		usage(fmt.Sprintf("unknown method %q", *method))
	}
	cfg.VoteRate = *voteRate
	cfg.ReportQuorum = *quorum
	cfg.ReportTimeout = *roundTimeout
	logger, err := logf.Setup(os.Stdout)
	if err != nil {
		usage(err.Error())
	}
	// A failure from here on (the ops endpoint, the flight recorder, a
	// refused resume, a failed defense) sets exit and returns, so main
	// exits 1 once every deferred flush below has run.
	exit := 0
	defer func() {
		if exit != 0 {
			os.Exit(exit)
		}
	}()
	defer prof.Start()()
	defer func() {
		obs.SampleProcess()
		fmt.Println("\nfinal metrics snapshot:")
		_ = obs.Default.WriteText(os.Stdout)
	}()

	// The ops endpoint comes up before any training so a long run is
	// observable from its first round.
	if *opsAddr != "" {
		ops, err := obs.ServeOps(*opsAddr, obs.Default)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 1
			return
		}
		logger.Info("serve: ops endpoint up", "addr", ops.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = ops.Shutdown(ctx)
		}()
	}

	// The flight recorder is the durable audit trail (DESIGN.md §10): one
	// JSONL record per round, plus the recent window on /rounds.
	var flight *obs.FlightRecorder
	if *flightPath != "" {
		flight, err = obs.NewFlightRecorder(*flightPath, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 1
			return
		}
		obs.SetFlightRecorder(flight)
		logger.Info("serve: flight recorder on", "path", flight.Path())
		defer flight.Close()
	}

	retry := transport.DefaultRetryPolicy()
	retry.MaxAttempts = *retries
	retry.AttemptTimeout = *attemptTimeout
	s.FL.Quorum = *quorum
	s.FL.RoundTimeout = *roundTimeout
	// The window bounds the updates held for remote participants; in-process,
	// where every client competes for the same cores, it would idle one.
	s.FL.Streaming = *clients != "" || *fleet != ""
	s.FL.StreamWindow = *streamWindow
	s.FL.SelectPerRound = *sel

	// t is the trained scenario the TA/AA lines and the defense read; a
	// fleet's synthetic participants have none, so it stays nil there.
	var (
		t      *eval.Trained
		server *fl.Server
		reg    *fl.Registry
	)
	switch {
	case *fleet != "":
		// Only the clients sampled into a round's cohort get a RemoteClient
		// stub, built on demand through the registry factory — server
		// memory follows the cohort, not the population.
		addr := strings.TrimSpace(*fleet)
		template, _, _, _ := eval.Components(s)
		reg = fl.NewRegistry(func(id int) fl.Participant {
			return transport.NewRemoteClient(id, transport.FleetClientAddr(addr, id),
				transport.WithRetryPolicy(retry))
		})
		reg.RegisterRange(0, *fleetCount)
		server = fl.NewRegistryServer(template, reg, s.FL, s.Seed+300)
	case *clients == "":
		t = eval.Build(s)
	default:
		template, _, test, validation := eval.Components(s)
		parts := make([]fl.Participant, len(addrs))
		for i, addr := range addrs {
			parts[i] = transport.NewRemoteClient(i, transport.FleetClientAddr(strings.TrimSpace(addr), i),
				transport.WithRetryPolicy(retry))
		}
		t = &eval.Trained{Scenario: s, Server: fl.NewServer(template, parts, s.FL, s.Seed+300),
			Participants: parts, Test: test, Validation: validation}
	}
	if t != nil {
		server = t.Server
	}
	server.Audit = flight
	startRound, err := setupDurability(server, logger, *ckptDir, *ckptEvery, *ckptFolds, scenarioRecord(s))
	if err != nil {
		fmt.Fprintln(os.Stderr, "resume:", err)
		exit = 1
		return
	}

	// Each round is evaluated exactly once. With a flight recorder the
	// evaluation runs inside the AuditAmend hook — the record and the log
	// line below then report the same numbers; without one the loop
	// evaluates directly.
	var lastTA, lastAA float64
	evaluated := false
	if flight != nil && t != nil {
		server.AuditAmend = func(a *fl.RoundAudit) {
			tav, aav := t.TA(), t.AA()
			a.TestAccuracy, a.AttackSuccessRate = &tav, &aav
			lastTA, lastAA, evaluated = tav, aav, true
		}
	}

	start := []any{"scenario", s.Name, "select", s.FL.SelectPerRound,
		"rounds", server.Config().Rounds, "params", server.Model.NumParams(),
		"backend", s.Backend.String(), "report_quant", s.ReportQuant.String()}
	if t == nil {
		start = append(start, "fleet", strings.TrimSpace(*fleet), "population", reg.Len())
	} else {
		start = append(start, "clients", len(t.Participants), "attackers", s.Attackers, "gamma", s.Gamma)
	}
	logger.Info("serve: training start", append(start, "tensor_kernel_avx2", obs.M.TensorKernelAVX2.Value())...)
	for round := startRound; round < server.Config().Rounds; round++ {
		res := server.RoundDetail(round)
		obs.SampleProcess()
		done := []any{"round", round}
		if t != nil {
			if !evaluated {
				lastTA, lastAA = t.TA(), t.AA()
			}
			evaluated = false
			done = append(done, "ta", fmt.Sprintf("%.1f", lastTA), "aa", fmt.Sprintf("%.1f", lastAA))
		}
		logger.Info("serve: round done", append(done,
			"completed", len(res.Completed),
			"dropped", len(res.Dropped),
			"applied", res.Applied,
			"peak_inflight", res.PeakInFlight)...)
	}

	switch {
	case !defend:
	case t == nil:
		err = collectFleetReports(server, reg, s, cfg, logger)
	default:
		err = runDefense(t, cfg, *mode, logger)
	}
	if err != nil {
		logger.Error("serve: defense failed", "err", err)
		exit = 1
	}
}

// runDefense runs Algorithm 1 on a clone of the trained global model and
// logs each stage's outcome and the TA/AA before and after. It returns the
// report collection's *core.ReportQuorumError when that missed its quorum.
func runDefense(t *eval.Trained, cfg core.PipelineConfig, mode string, logger *slog.Logger) error {
	logger.Info("serve: defense pipeline start", "mode", mode, "method", cfg.Method.String())
	m, rep := t.Defend(cfg)
	if len(rep.ReportDropouts) > 0 {
		logger.Warn("serve: prune reports lost", "clients", fmt.Sprint(rep.ReportDropouts))
	}
	if rep.Err != nil {
		return rep.Err
	}
	logger.Info("serve: defense done",
		"mode", mode,
		"method", cfg.Method.String(),
		"target_layer", rep.TargetLayer,
		"pruned", len(rep.Prune.Pruned),
		"finetune_rounds", rep.FineTune.Rounds,
		"zeroed", rep.AW.Zeroed,
		"final_delta", fmt.Sprintf("%.2f", rep.AW.FinalDelta))
	logger.Info("serve: validation accuracy",
		"before", fmt.Sprintf("%.3f", rep.AccBefore),
		"prune", fmt.Sprintf("%.3f", rep.AccAfterPrune),
		"finetune", fmt.Sprintf("%.3f", rep.AccAfterFineTune),
		"final", fmt.Sprintf("%.3f", rep.AccFinal))
	logger.Info("serve: result",
		"ta_before", fmt.Sprintf("%.1f", t.TA()),
		"ta_after", fmt.Sprintf("%.1f", t.ModelTA(m)),
		"aa_before", fmt.Sprintf("%.1f", t.AA()),
		"aa_after", fmt.Sprintf("%.1f", t.ModelAA(m)))
	return nil
}

// collectFleetReports closes a fleet run: one RAP and one MVP sweep over a
// sampled cohort, exercising the report wire at scale and logging its
// measured per-report cost. It returns the first sweep's
// *core.ReportQuorumError when one missed its quorum.
func collectFleetReports(server *fl.Server, reg *fl.Registry, s eval.Scenario, cfg core.PipelineConfig, logger *slog.Logger) error {
	cohort := s.FL.SelectPerRound
	if cohort <= 0 || cohort > reg.Len() {
		cohort = min(64, reg.Len())
	}
	parts := reg.Cohort(cohort, rand.New(rand.NewSource(s.Seed+400)))
	reporters := fl.ReportClients(parts)
	li := server.Model.LastConvIndex()
	recvBefore := obs.M.TransportReportBytesRecv.Value()
	for _, method := range []core.PruneMethod{core.RAP, core.MVP} {
		cfg.Method = method
		res := core.GlobalPruneOrderDetail(server.Model, reporters, li, cfg)
		if res.Err != nil {
			return res.Err
		}
		logger.Info("serve: fleet report collection done",
			"method", method.String(),
			"responded", len(res.Responded),
			"dropped", len(res.Dropped),
			"order_len", len(res.Order))
	}
	recv := obs.M.TransportReportBytesRecv.Value() - recvBefore
	reports := uint64(2 * len(reporters))
	logger.Info("serve: fleet report bandwidth",
		"reports", reports,
		"recv_bytes", recv,
		"bytes_per_report", recv/reports)
	return nil
}

// scenarioFile holds the scenario record of the run a checkpoint directory
// belongs to; checkpoint files are *.fcc, so the checkpointer ignores it.
const scenarioFile = "scenario"

// scenarioRecord names what a run trains: every scenario flag but -rounds,
// as resolved (so -seed 0 and the scenario's default seed agree). A resumed
// run may extend -rounds; anything else here changes the task or the
// participants mid-run.
func scenarioRecord(s eval.Scenario) string {
	return fmt.Sprintf("%s seed=%d attackers=%d gamma=%g backend=%s report-quant=%s\n",
		s.Name, s.Seed, s.Attackers, s.Gamma, s.Backend, s.ReportQuant)
}

// setupDurability installs the checkpointer (DESIGN.md §7) and restores the
// newest complete checkpoint in dir, returning the first round the
// training loop should run. An empty or missing directory starts fresh —
// the first boot of a durable deployment — and records the run's scenario
// there. It returns an error for a checkpoint this run cannot continue:
// another scenario (the record differs or is missing), seed or
// population, a round past -rounds, an unreadable file.
func setupDurability(server *fl.Server, logger *slog.Logger, dir string, every, folds int, scenario string) (int, error) {
	if dir == "" {
		return 0, nil
	}
	server.SetCheckpointer(&fl.Checkpointer{Dir: dir, EveryRounds: every, EveryFolds: folds})
	next, resumed, err := server.ResumeLatest(dir)
	if err != nil {
		return 0, err
	}
	record := filepath.Join(dir, scenarioFile)
	if !resumed {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
		if err := fl.AtomicWriteFile(record, []byte(scenario)); err != nil {
			return 0, err
		}
		logger.Info("serve: no checkpoint found, starting fresh", "dir", dir)
		return 0, nil
	}
	had, err := os.ReadFile(record)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return 0, fmt.Errorf("%s holds checkpoints but no %s record of their scenario", dir, scenarioFile)
	case err != nil:
		return 0, err
	case string(had) != scenario:
		return 0, fmt.Errorf("%s holds checkpoints of another scenario: %q, this run is %q",
			dir, strings.TrimSpace(string(had)), strings.TrimSpace(scenario))
	case next > server.Config().Rounds:
		return 0, fmt.Errorf("%s holds a checkpoint at round %d, past -rounds %d", dir, next, server.Config().Rounds)
	}
	logger.Info("serve: resumed from checkpoint", "dir", dir, "next_round", next)
	return next, nil
}
