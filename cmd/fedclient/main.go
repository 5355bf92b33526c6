// Command fedclient runs one federated participant as a standalone
// process, serving the transport protocol over HTTP. All processes of a
// federation must be started with the same scenario flags (dataset,
// victim, target, seed, population sizes); each derives its own shard
// deterministically from the shared seed, so no data ever crosses the
// wire.
//
// Example (one attacker and two honest clients on loopback):
//
//	fedclient -index 0 -listen 127.0.0.1:7001 &
//	fedclient -index 1 -listen 127.0.0.1:7002 &
//	fedclient -index 2 -listen 127.0.0.1:7003 &
//	fedserve -clients 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/eval"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/transport"
)

func main() {
	scen := eval.AddScenarioFlags()
	index := flag.Int("index", 0, "this participant's index in the population")
	listen := flag.String("listen", "127.0.0.1:0", "listen address")
	quantFlag := flag.String("report-quant", "float64", "report precision: float64 (reference) or int8 (ranks and votes from int8-quantized activations; the wire carries ranks or votes either way)")
	traceSeed := flag.Int64("trace-seed", 0, "seed for deterministic trace/span IDs (0 = unique per process)")
	logf := obs.AddLogFlags()
	flag.Parse()
	if _, err := logf.Setup(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *traceSeed != 0 {
		obs.SetTraceSeed(*traceSeed)
	}
	quant, err := metrics.ParseReportQuant(*quantFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	s, err := scen.Scenario()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	s.ReportQuant = quant
	if *index < 0 || *index >= s.Clients {
		fmt.Fprintf(os.Stderr, "index %d outside population of %d\n", *index, s.Clients)
		os.Exit(2)
	}

	template, shards, _, _ := eval.Components(s)
	part := eval.ParticipantFor(s, *index, template, shards[*index])
	full, ok := part.(interface {
		fl.Participant
		core.ReportClient
	})
	if !ok {
		fmt.Fprintln(os.Stderr, "participant does not implement the transport surface")
		os.Exit(1)
	}
	cs := transport.NewClientServer(full, template)
	addr, err := cs.Serve(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	role := "honest client"
	if *index < s.Attackers {
		role = "ATTACKER"
	}
	fmt.Printf("participant %d (%s) serving on %s\n", *index, role, addr)
	obs.SampleProcess()
	defer func() {
		obs.SampleProcess()
		fmt.Fprintln(os.Stderr, "\nfinal metrics snapshot:")
		_ = obs.Default.WriteText(os.Stderr)
	}()

	// Serve until interrupted or the server dies underneath us; a clean
	// Shutdown delivers nil on the error channel.
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	select {
	case <-ch:
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := cs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "shutdown:", err)
			os.Exit(1)
		}
		if err := <-cs.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
	case err := <-cs.Err():
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}
