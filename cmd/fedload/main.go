// Command fedload hosts a fleet of synthetic federated clients behind one
// listener, for load-testing the aggregation server at population scales
// no real per-process clients could reach. Each client is an
// fl.SyntheticClient — a deterministic pseudo-update generator a few
// words wide, whose deltas and reports are read off a counter-based
// stream with no generator state, so generating an update costs a small
// share of serving it — served at /c/<id>/v1/{update,ranks,votes} by a
// transport.Fleet, so fedserve drives the whole protocol, defense
// reports included, through ordinary RemoteClients:
//
//	fedload  -clients 10000 -listen 127.0.0.1:7100 -ops-addr 127.0.0.1:7101 &
//	fedserve -fleet 127.0.0.1:7100 -fleet-count 10000 -select 256
//
// -ops-addr exposes /metrics with the fedload_* counters (updates served,
// bytes in/out, recovered handler panics) and the process memory gauges;
// the load-smoke CI job asserts over exactly that surface.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/transport"
)

func main() {
	clients := flag.Int("clients", 10000, "synthetic clients to host")
	listen := flag.String("listen", "127.0.0.1:0", "fleet listen address")
	opsAddr := flag.String("ops-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	seed := flag.Int64("seed", 1, "fleet seed (decorrelates whole fleets)")
	scale := flag.Float64("scale", 0, "synthetic delta coordinate bound (0 = 1e-3)")
	logf := obs.AddLogFlags()
	flag.Parse()
	logger, err := logf.Setup(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *clients < 1 {
		fmt.Fprintln(os.Stderr, "-clients must be at least 1")
		os.Exit(2)
	}

	fleet := transport.NewFleet()
	for id := 0; id < *clients; id++ {
		fleet.Add(&fl.SyntheticClient{Id: id, Seed: *seed, Scale: *scale})
	}

	if *opsAddr != "" {
		ops, err := obs.ServeOps(*opsAddr, obs.Default)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		logger.Info("fedload: ops endpoint up", "addr", ops.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = ops.Shutdown(ctx)
		}()
	}

	addr, err := fleet.Serve(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	logger.Info("fedload: fleet serving", "addr", addr, "clients", fleet.Len())
	fmt.Printf("fleet of %d clients serving on %s\n", fleet.Len(), addr)

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
