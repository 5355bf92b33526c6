// Command fedclient runs one federated participant as a standalone
// process: a transport.Fleet of one, serving participant <index> at
// /c/<index>/v1/... over HTTP. All processes of a federation must be
// started with the same scenario flags (eval.AddScenarioFlags: dataset,
// labels, seed, attackers, gamma, rounds, backend, report precision); each
// derives its own shard deterministically from the shared seed, so no data
// ever crosses the wire. fedserve's -clients lists the processes in index
// order: the address at position i must be the fedclient started with
// -index i, or that participant's calls are refused (HTTP 404) and it
// drops out.
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

	"github.com/fedcleanse/fedcleanse/internal/eval"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/transport"
)

func main() {
	scen := eval.AddScenarioFlags()
	index := flag.Int("index", 0, "this participant's index in the population")
	listen := flag.String("listen", "127.0.0.1:0", "listen address")
	logf := obs.AddLogFlags()
	flag.Parse()
	if _, err := logf.Setup(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	s, err := scen.Scenario()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *index < 0 || *index >= s.Clients {
		fmt.Fprintf(os.Stderr, "index %d outside population of %d\n", *index, s.Clients)
		os.Exit(2)
	}

	template, shards, _, _ := eval.Components(s)
	fleet := transport.NewFleet()
	fleet.AddWithModel(eval.ParticipantFor(s, *index, template, shards[*index]), template)
	addr, err := fleet.Serve(*listen)
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
		if err := fleet.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "shutdown:", err)
			os.Exit(1)
		}
		if err := <-fleet.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
	case err := <-fleet.Err():
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}
