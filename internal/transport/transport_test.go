package transport

import (
	"context"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
)

// buildPopulation creates the same clients twice: once as in-process
// participants, once each in a fleet of its own behind an HTTP server, with
// remote stubs. The returned shutdown func stops all servers.
func buildPopulation(t *testing.T) (local []fl.Participant, remote []fl.Participant,
	template *nn.Sequential, test *dataset.Dataset, shutdown func()) {
	t.Helper()
	train, testDS := dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 30, TestPerClass: 10, Seed: 50})
	rng := rand.New(rand.NewSource(51))
	template = nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rng)
	cfg := fl.Config{Rounds: 2, LocalEpochs: 1, BatchSize: 20, LR: 0.05}

	shards := dataset.PartitionKLabelForced(train, 3, 3, 40, rand.New(rand.NewSource(52)), 9, 1)
	mkClients := func() []fl.Participant {
		poison := dataset.PoisonConfig{
			Trigger:     dataset.PixelPattern(3, train.Shape),
			VictimLabel: 9, TargetLabel: 1,
		}
		atk := fl.NewAttacker(0, shards[0], template, cfg, poison, 2, 53)
		return []fl.Participant{
			atk,
			fl.NewClient(1, shards[1], template, cfg, 54),
			fl.NewClient(2, shards[2], template, cfg, 55),
		}
	}

	local = mkClients()
	var stops []func()
	for _, p := range mkClients() {
		addr, stop := serveOne(p, template, nil)
		stops = append(stops, stop)
		remote = append(remote, NewRemoteClient(p.ID(), addr))
	}
	shutdown = func() {
		for _, stop := range stops {
			stop()
		}
	}
	return local, remote, template, testDS, shutdown
}

// TestRemoteMatchesLocalTraining is the transport equivalence test: two
// federated rounds over real loopback HTTP must produce bit-identical
// global parameters to the in-process simulation.
func TestRemoteMatchesLocalTraining(t *testing.T) {
	local, remote, template, _, shutdown := buildPopulation(t)
	defer shutdown()
	cfg := fl.Config{Rounds: 2, LocalEpochs: 1, BatchSize: 20, LR: 0.05}

	srvLocal := fl.NewServer(template, local, cfg, 60)
	srvRemote := fl.NewServer(template, remote, cfg, 60)
	srvLocal.Train(nil)
	srvRemote.Train(nil)

	a, b := srvLocal.Model.ParamsVector(), srvRemote.Model.ParamsVector()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("remote and local training diverge at param %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestRemoteReports(t *testing.T) {
	local, remote, template, _, shutdown := buildPopulation(t)
	defer shutdown()
	li := template.LastConvIndex()

	lc := local[1].(core.ReportClient)
	rc := remote[1].(core.ReportClient)
	lr, rr := lc.RankReport(template, li), rc.RankReport(template, li)
	for i := range lr {
		if lr[i] != rr[i] {
			t.Fatalf("rank report differs at %d", i)
		}
	}
	lv, rv := lc.VoteReport(template, li, 0.5), rc.VoteReport(template, li, 0.5)
	for i := range lv {
		if lv[i] != rv[i] {
			t.Fatalf("vote report differs at %d", i)
		}
	}
}

// TestRemoteDefensePipeline runs the full defense over the wire.
func TestRemoteDefensePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("network defense pipeline is slow")
	}
	_, remote, template, test, shutdown := buildPopulation(t)
	defer shutdown()
	cfg := fl.Config{Rounds: 2, LocalEpochs: 1, BatchSize: 20, LR: 0.05}
	srv := fl.NewServer(template, remote, cfg, 61)
	srv.Train(nil)

	pcfg := core.DefaultPipelineConfig()
	pcfg.FineTuneRounds = 2
	pcfg.FineTunePatience = 5
	m := srv.Model.Clone()
	evalFn := metrics.NewSuffixEvaluator(test, 0)
	rep := core.RunPipeline(m, fl.ReportClients(remote), srv, evalFn, pcfg)
	if rep.AccFinal <= 0 {
		t.Fatal("pipeline over the wire produced no evaluation")
	}
}

// fastRetry keeps failure tests quick: two attempts, millisecond backoff,
// short per-attempt timeout.
func fastRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 2, AttemptTimeout: 250 * time.Millisecond,
		BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
}

func TestRemoteClientErrorsOnDeadServer(t *testing.T) {
	rc := NewRemoteClient(0, "127.0.0.1:1", WithRetryPolicy(fastRetry())) // nothing listens there
	if _, err := rc.TryLocalUpdate(context.Background(), make([]float64, 4), 0); err == nil {
		t.Fatal("dead server did not return an error")
	}
	// The infallible fl.Participant surface degrades to a nil delta (a
	// recorded dropout in the round drivers), never a panic.
	if d := rc.LocalUpdate(make([]float64, 4), 0); d != nil {
		t.Fatalf("dead server returned a delta: %v", d)
	}
	if rc.LastErr() == nil {
		t.Fatal("failed call left no LastErr")
	}
}

func TestRemoteClientRespectsCallerContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rc := NewRemoteClient(0, "127.0.0.1:1", WithRetryPolicy(fastRetry()))
	if _, err := rc.TryLocalUpdate(ctx, make([]float64, 4), 0); err == nil {
		t.Fatal("cancelled context did not surface an error")
	}
}

func TestServeTwiceFails(t *testing.T) {
	f := NewFleet()
	f.Add(&fl.SyntheticClient{Id: 0})
	if _, err := f.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	if _, err := f.Serve("127.0.0.1:0"); err == nil {
		t.Fatal("second Serve did not fail")
	}
}

func TestShutdownBeforeServeIsSafe(t *testing.T) {
	f := NewFleet()
	f.Add(&fl.SyntheticClient{Id: 0})
	if err := f.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown before Serve: %v", err)
	}
	if _, err := f.Serve("127.0.0.1:0"); err == nil {
		t.Fatal("Serve after Shutdown did not fail")
	}
	if err := f.Shutdown(context.Background()); err != nil {
		t.Fatalf("double Shutdown: %v", err)
	}
}

func TestServeErrorChannel(t *testing.T) {
	mk := func() *Fleet {
		f := NewFleet()
		f.Add(&fl.SyntheticClient{Id: 0})
		return f
	}

	// Clean shutdown delivers nil.
	f := mk()
	if f.Err() != nil {
		t.Fatal("Err non-nil before Serve")
	}
	if _, err := f.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := f.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-f.Err(); err != nil {
		t.Fatalf("clean shutdown delivered %v, want nil", err)
	}

	// A listener failure out from under the server delivers the error.
	f = mk()
	if _, err := f.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	f.life.listener.Close()
	select {
	case err := <-f.Err():
		if err == nil {
			t.Fatal("listener failure delivered nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve error never delivered")
	}
}

// TestServeRejectsGet: the protocol's endpoints take POSTs only, in a slot
// with a model architecture as in one without.
func TestServeRejectsGet(t *testing.T) {
	f := NewFleet()
	f.AddWithModel(&fl.SyntheticClient{Id: 1}, fleetTemplate())
	f.Add(&fl.SyntheticClient{Id: 2})
	addr, err := f.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	for _, id := range []int{1, 2} {
		code, err := httpGet("http://" + FleetClientAddr(addr, id) + "/v1/update")
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusMethodNotAllowed {
			t.Fatalf("client %d: GET returned %d, want 405", id, code)
		}
	}
}

// httpGet returns the status code of a GET request.
func httpGet(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, nil
}

// TestReportWireModes: the same participant must produce equal reports
// at both report precisions — varint ranks and a vote bitmap, ranked and
// voted by the participant from its float64 activations or from their int8
// codes — with the int8 mode matching an in-process client configured for
// int8 reports bit-for-bit.
func TestReportWireModes(t *testing.T) {
	train, _ := dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 20, TestPerClass: 5, Seed: 70})
	rng := rand.New(rand.NewSource(71))
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rng)
	cfg := fl.Config{Rounds: 1, LocalEpochs: 1, BatchSize: 20, LR: 0.05}
	li := template.LastConvIndex()

	mk := func() *fl.Client { return fl.NewClient(0, train, template, cfg, 72) }

	serve := func(c *fl.Client) (*RemoteClient, func()) {
		addr, stop := serveOne(c, template, nil)
		return NewRemoteClient(0, addr), stop
	}

	// Reference reports straight from in-process clients.
	refRanks := mk().RankReport(template, li)
	refVotes := mk().VoteReport(template, li, 0.5)
	int8Client := mk()
	int8Client.SetReportQuant(metrics.ReportInt8)
	refRanks8 := int8Client.RankReport(template, li)
	refVotes8 := int8Client.VoteReport(template, li, 0.5)

	check := func(mode string, rc *RemoteClient, wantRanks []int, wantVotes []bool) {
		t.Helper()
		ranks, err := rc.TryRankReport(context.Background(), template, li)
		if err != nil {
			t.Fatalf("%s: TryRankReport: %v", mode, err)
		}
		for i := range wantRanks {
			if ranks[i] != wantRanks[i] {
				t.Fatalf("%s: rank[%d] = %d, want %d", mode, i, ranks[i], wantRanks[i])
			}
		}
		votes, err := rc.TryVoteReport(context.Background(), template, li, 0.5)
		if err != nil {
			t.Fatalf("%s: TryVoteReport: %v", mode, err)
		}
		for i := range wantVotes {
			if votes[i] != wantVotes[i] {
				t.Fatalf("%s: vote[%d] = %v, want %v", mode, i, votes[i], wantVotes[i])
			}
		}
	}

	rcCompact, stop := serve(mk())
	sent := obs.M.TransportReportBytesSent.Value()
	recv := obs.M.TransportReportBytesRecv.Value()
	check("compact-f64", rcCompact, refRanks, refVotes)
	if obs.M.TransportReportBytesSent.Value() == sent || obs.M.TransportReportBytesRecv.Value() == recv {
		t.Fatal("report byte counters did not move")
	}
	stop()

	rcInt8, stop := serve(int8Client)
	check("compact-int8", rcInt8, refRanks8, refVotes8)
	stop()
}
