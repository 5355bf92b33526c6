// Command fedserve runs the federated aggregation server against remote
// fedclient processes, then (optionally) the defense pipeline — one
// federation spread across OS processes, communicating only through the
// transport protocol. Start it with the same scenario flags as the
// fedclient processes (see cmd/fedclient for a full example). -clients
// lists their host:port addresses in index order; participant i is reached
// at /c/i on the i-th (transport.FleetClientAddr), so a misplaced address
// is refused with a 404 and its participant drops out rather than answering
// under another index.
//
// While a run is in flight, -ops-addr exposes the live diagnostics
// surface: /metrics (text or JSON snapshot of the obs registry),
// /healthz, /trace (Chrome trace-event JSON of the recent span ring),
// /rounds (the flight recorder's recent audit records), and
// net/http/pprof. -log-level/-log-json control the structured event
// stream; a final metrics snapshot prints on exit. -flight-recorder
// appends the per-round audit trail to a JSONL file (DESIGN.md §10);
// -trace-seed pins the trace/span ID sequence for reproducible runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/eval"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/profiling"
	"github.com/fedcleanse/fedcleanse/internal/transport"
)

func main() {
	scen := eval.AddScenarioFlags()
	clients := flag.String("clients", "", "comma-separated fedclient addresses (host:port), in participant-index order: position i must be the fedclient started with -index i")
	fleet := flag.String("fleet", "", "fedload fleet address (host:port); replaces -clients with a registered population of fleet-hosted clients")
	fleetCount := flag.Int("fleet-count", 10000, "registered population size in fleet mode")
	sel := flag.Int("select", 0, "clients sampled per round in fleet mode (0 = all)")
	streaming := flag.Bool("streaming", false, "fold updates into a running aggregate instead of buffering the cohort")
	streamWindow := flag.Int("stream-window", 0, "streaming concurrency window (0 = twice the worker count)")
	rounds := flag.Int("rounds", 0, "override the scenario's round count (0 = scenario default)")
	defend := flag.Bool("defend", true, "run the defense pipeline after training")
	quorum := flag.Float64("quorum", 0.5, "fraction of clients that must respond for a round to apply (0 = any)")
	roundTimeout := flag.Duration("round-timeout", 5*time.Minute, "deadline for one aggregation round (0 = none)")
	retries := flag.Int("retries", 3, "attempts per remote call")
	attemptTimeout := flag.Duration("attempt-timeout", time.Minute, "deadline per remote call attempt")
	opsAddr := flag.String("ops-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	ckptDir := flag.String("checkpoint-dir", "", "persist round-state checkpoints into this directory (empty = off)")
	ckptEvery := flag.Int("checkpoint-every", 1, "write a boundary checkpoint every N completed rounds")
	ckptFolds := flag.Int("checkpoint-folds", 0, "also write a partial checkpoint every N folded updates inside a streaming round (0 = boundaries only)")
	resume := flag.Bool("resume", false, "resume from the newest complete checkpoint in -checkpoint-dir before training")
	flightPath := flag.String("flight-recorder", "", "append one JSONL audit record per applied round to this file (empty = off); the recent records are also served at /rounds on -ops-addr")
	traceSeed := flag.Int64("trace-seed", 0, "seed for deterministic trace/span IDs (0 = unique per process)")
	logf := obs.AddLogFlags()
	prof := profiling.AddFlags()
	flag.Parse()
	if *fleetCount < 1 {
		fmt.Fprintln(os.Stderr, "-fleet-count must be at least 1")
		os.Exit(2)
	}
	addrs := strings.Split(*clients, ",")
	if *fleet == "" && *clients == "" {
		fmt.Fprintln(os.Stderr, "one of -clients or -fleet is required")
		os.Exit(2)
	}
	if *fleet != "" && *clients != "" {
		fmt.Fprintln(os.Stderr, "-clients and -fleet are mutually exclusive")
		os.Exit(2)
	}
	// An empty entry would be a client at "http://" that drops out of every
	// round yet counts in the quorum's cohort size.
	if *clients != "" && slices.ContainsFunc(addrs, func(a string) bool { return strings.TrimSpace(a) == "" }) {
		fmt.Fprintln(os.Stderr, "-clients has an empty address")
		os.Exit(2)
	}
	logger, err := logf.Setup(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer prof.Start()()
	if *traceSeed != 0 {
		obs.SetTraceSeed(*traceSeed)
	}
	s, err := scen.Scenario()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// The ops endpoint comes up before any training so a long run is
	// observable from its first round.
	if *opsAddr != "" {
		ops, err := obs.ServeOps(*opsAddr, obs.Default)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		logger.Info("serve: ops endpoint up", "addr", ops.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = ops.Shutdown(ctx)
		}()
	}
	defer func() {
		obs.SampleProcess()
		fmt.Println("\nfinal metrics snapshot:")
		_ = obs.Default.WriteText(os.Stdout)
	}()

	// The flight recorder is the durable audit trail (DESIGN.md §10): one
	// JSONL record per round, plus the recent window on /rounds.
	var flight *obs.FlightRecorder
	if *flightPath != "" {
		flight, err = obs.NewFlightRecorder(*flightPath, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		obs.SetFlightRecorder(flight)
		logger.Info("serve: flight recorder on", "path", flight.Path())
		defer flight.Close()
	}

	template, _, test, validation := eval.Components(s)
	retry := transport.DefaultRetryPolicy()
	retry.MaxAttempts = *retries
	retry.AttemptTimeout = *attemptTimeout
	s.FL.Quorum = *quorum
	s.FL.RoundTimeout = *roundTimeout
	s.FL.Streaming = *streaming
	s.FL.StreamWindow = *streamWindow
	if *rounds > 0 {
		s.FL.Rounds = *rounds
	}

	if *fleet != "" {
		// Fleet mode: a fedload process hosts *fleet-count synthetic clients
		// behind one listener. Only the clients sampled into a round's cohort
		// get a RemoteClient stub, built on demand through the registry
		// factory — server memory follows the cohort, not the population.
		// Synthetic updates carry no signal to defend, so instead of the full
		// pipeline the run closes with a report-collection phase: one RAP and
		// one MVP sweep over a sampled cohort, exercising the report wire at
		// scale and logging its measured per-report cost.
		fleetAddr := strings.TrimSpace(*fleet)
		reg := fl.NewRegistry(func(id int) fl.Participant {
			return transport.NewRemoteClient(id, transport.FleetClientAddr(fleetAddr, id),
				transport.WithRetryPolicy(retry))
		})
		reg.RegisterRange(0, *fleetCount)
		s.FL.SelectPerRound = *sel
		server := fl.NewRegistryServer(template, reg, s.FL, s.Seed+300)
		server.Audit = flight
		startRound := setupDurability(server, logger, *ckptDir, *ckptEvery, *ckptFolds, *resume)
		logger.Info("serve: fleet training start",
			"fleet", fleetAddr, "population", reg.Len(), "params", template.NumParams(),
			"select", *sel, "streaming", *streaming, "rounds", server.Config().Rounds,
			"tensor_kernel_avx2", obs.M.TensorKernelAVX2.Value())
		for round := startRound; round < server.Config().Rounds; round++ {
			res := server.RoundDetail(round)
			obs.SampleProcess()
			logger.Info("serve: round done",
				"round", round,
				"completed", len(res.Completed),
				"dropped", len(res.Dropped),
				"applied", res.Applied,
				"peak_inflight", res.PeakInFlight)
		}
		if !*defend {
			return
		}
		cohort := *sel
		if cohort <= 0 || cohort > reg.Len() {
			cohort = min(64, reg.Len())
		}
		parts := reg.Cohort(cohort, rand.New(rand.NewSource(s.Seed+400)))
		reporters := fl.ReportClients(parts)
		li := template.LastConvIndex()
		recvBefore := obs.M.TransportReportBytesRecv.Value()
		for _, method := range []core.PruneMethod{core.RAP, core.MVP} {
			cfg := core.DefaultPipelineConfig()
			cfg.Method = method
			cfg.ReportQuorum = *quorum
			cfg.ReportTimeout = *roundTimeout
			res := core.GlobalPruneOrderDetail(server.Model, reporters, li, cfg)
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
		return
	}

	parts := make([]fl.Participant, len(addrs))
	for i, addr := range addrs {
		parts[i] = transport.NewRemoteClient(i, transport.FleetClientAddr(strings.TrimSpace(addr), i),
			transport.WithRetryPolicy(retry))
	}
	// The population size follows the actually connected clients.
	s.FL.SelectPerRound = 0
	server := fl.NewServer(template, parts, s.FL, s.Seed+300)
	server.Audit = flight
	startRound := setupDurability(server, logger, *ckptDir, *ckptEvery, *ckptFolds, *resume)

	taEval := metrics.NewSuffixEvaluator(test, 0)
	asrEval := metrics.NewCachedASR(test, s.Poison, 0)
	ta := func(m *nn.Sequential) float64 { return 100 * taEval.Evaluate(m) }
	aa := func(m *nn.Sequential) float64 { return 100 * asrEval.Evaluate(m) }

	// Each round is evaluated exactly once. With a flight recorder the
	// evaluation runs inside the AuditAmend hook — the record and the log
	// line below then report the same numbers; without one the loop
	// evaluates directly.
	var lastTA, lastAA float64
	evaluated := false
	if flight != nil {
		server.AuditAmend = func(a *fl.RoundAudit) {
			tav, aav := ta(server.Model), aa(server.Model)
			a.TestAccuracy, a.AttackSuccessRate = &tav, &aav
			lastTA, lastAA, evaluated = tav, aav, true
		}
	}

	logger.Info("serve: training start", "clients", len(parts), "rounds", server.Config().Rounds,
		"tensor_kernel_avx2", obs.M.TensorKernelAVX2.Value())
	for round := startRound; round < server.Config().Rounds; round++ {
		res := server.RoundDetail(round)
		if !evaluated {
			lastTA, lastAA = ta(server.Model), aa(server.Model)
		}
		evaluated = false
		logger.Info("serve: round done",
			"round", round,
			"ta", fmt.Sprintf("%.1f", lastTA),
			"aa", fmt.Sprintf("%.1f", lastAA),
			"dropped", len(res.Dropped),
			"applied", res.Applied)
	}

	if !*defend {
		return
	}
	logger.Info("serve: defense pipeline start")
	cfg := core.DefaultPipelineConfig()
	cfg.ReportQuorum = *quorum
	cfg.ReportTimeout = *roundTimeout
	m := server.Model.Clone()
	evalFn := metrics.NewSuffixEvaluator(validation, 0)
	rep := core.RunPipeline(m, fl.ReportClients(parts), server, evalFn, cfg)
	if len(rep.ReportDropouts) > 0 {
		logger.Warn("serve: prune reports lost", "clients", fmt.Sprint(rep.ReportDropouts))
	}
	logger.Info("serve: defense done",
		"pruned", len(rep.Prune.Pruned),
		"finetune_rounds", rep.FineTune.Rounds,
		"zeroed", rep.AW.Zeroed)
	logger.Info("serve: result",
		"ta_before", fmt.Sprintf("%.1f", ta(server.Model)),
		"ta_after", fmt.Sprintf("%.1f", ta(m)),
		"aa_before", fmt.Sprintf("%.1f", aa(server.Model)),
		"aa_after", fmt.Sprintf("%.1f", aa(m)))
}

// setupDurability installs the checkpointer (DESIGN.md §7) and, under
// -resume, restores the newest complete checkpoint, returning the first
// round the training loop should run. Resuming against an empty or
// missing directory starts fresh — the normal first boot of a durable
// deployment.
func setupDurability(server *fl.Server, logger *slog.Logger, dir string, every, folds int, resume bool) int {
	if dir == "" {
		if resume {
			fmt.Fprintln(os.Stderr, "-resume requires -checkpoint-dir")
			os.Exit(2)
		}
		return 0
	}
	server.SetCheckpointer(&fl.Checkpointer{Dir: dir, EveryRounds: every, EveryFolds: folds})
	if !resume {
		return 0
	}
	next, resumed, err := server.ResumeLatest(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "resume:", err)
		os.Exit(1)
	}
	if !resumed {
		logger.Info("serve: no checkpoint found, starting fresh", "dir", dir)
		return 0
	}
	logger.Info("serve: resumed from checkpoint", "dir", dir, "next_round", next)
	return next
}
