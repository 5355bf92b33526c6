package transport

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// TestRemoteReportsMatchInProcess: a participant decides the precision of
// its reports, and the wire carries what it computes. For a Client, an
// Attacker (honest, and manipulating its ranks) and a SyntheticClient, at
// float64 and at int8, the ranks (RAP) and votes (MVP) a RemoteClient gets
// through a ClientServer and through a Fleet are bit for bit the
// participant's in-process RankReport and VoteReport. A rank response is a
// RanksDelta and a vote response a VoteBitmap at either precision: the
// participant ranks and votes on its own codes, and its activations never
// leave it.
//
// The models reported on are a SmallCNN away from its initialization and a
// MiniVGG with units pruned in its last conv layer and in the conv layer
// before it, whose BatchNorm channels the pruning masks too. A request
// carries parameters, not masks, and a participant reports on an unmasked
// working model of its own (fl's TestClientRecordsTheMaskedModel checks
// that its activations still equal those of the masked model itself).
func TestRemoteReportsMatchInProcess(t *testing.T) {
	smallTrain, _ := dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 6, TestPerClass: 1, Seed: 113})
	vggTrain, _ := dataset.GenSynthCIFAR(dataset.GenConfig{TrainPerClass: 6, TestPerClass: 1, Seed: 120})
	in16 := func(c int) nn.Input { return nn.Input{C: c, H: 16, W: 16} }
	for _, setup := range []struct {
		name     string
		train    *dataset.Dataset
		template *nn.Sequential
		prune    bool
	}{
		{"SmallCNN", smallTrain, nn.NewSmallCNN(in16(1), 10, rand.New(rand.NewSource(114))), false},
		{"pruned MiniVGG", vggTrain, nn.NewMiniVGG(in16(3), 10, rand.New(rand.NewSource(121))), true},
	} {
		train, template := setup.train, setup.template
		li := template.LastConvIndex()
		// Reports are taken on parameters away from the initialization.
		m := template.Clone()
		rng := rand.New(rand.NewSource(115))
		delta := make([]float64, m.NumParams())
		for i := range delta {
			delta[i] = 0.05 * rng.NormFloat64()
		}
		m.AddDeltaVector(1, delta)
		if setup.prune {
			prev := li - 1
			for _, ok := m.Layer(prev).(*nn.Conv2D); !ok; _, ok = m.Layer(prev).(*nn.Conv2D) {
				prev--
			}
			if _, ok := m.Layer(prev + 1).(*nn.BatchNorm2D); !ok {
				t.Fatalf("%s: layer %d is followed by %s, not a BatchNorm", setup.name, prev, m.Layer(prev+1).Name())
			}
			for _, u := range []int{0, 5, 17} {
				m.PruneModelUnit(li, u)
				m.PruneModelUnit(prev, u)
			}
		}
		testReportsMatchInProcess(t, setup.name, train, template, m, li)
	}
}

// testReportsMatchInProcess is TestRemoteReportsMatchInProcess on one
// model m of template's architecture, reported on at layer li.
func testReportsMatchInProcess(t *testing.T, name string, train *dataset.Dataset, template, m *nn.Sequential, li int) {
	cfg := fl.Config{Rounds: 1, LocalEpochs: 1, BatchSize: 20, LR: 0.05}
	poison := dataset.PoisonConfig{Trigger: dataset.PixelPattern(3, train.Shape), VictimLabel: 9, TargetLabel: 1}
	ctx := context.Background()
	for _, quant := range []metrics.ReportQuant{metrics.ReportFloat64, metrics.ReportInt8} {
		client := fl.NewClient(0, train, template, cfg, 116)
		client.SetReportQuant(quant)
		honest := fl.NewAttacker(1, train, template, cfg, poison, 2, 117)
		honest.SetReportQuant(quant)
		liar := fl.NewAttacker(2, train, template, cfg, poison, 2, 118)
		liar.SetReportQuant(quant)
		liar.SetDefenseBehavior(fl.AttackerDefenseBehavior{ManipulateRanks: true})
		parts := map[string]participant{
			"client":                client,
			"attacker":              honest,
			"attacker-manipulating": liar,
			"synthetic":             &fl.SyntheticClient{Id: 3, Seed: 119},
		}

		fleet := NewFleet()
		for _, p := range parts {
			tmpl := template.Clone()
			tmpl.Params()
			fleet.add(p, tmpl)
		}
		fleetAddr, err := fleet.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		for who, p := range parts {
			who = name + " " + who
			cs := NewClientServer(p, template)
			for _, ep := range []struct {
				path string
				kind uint16
				tag  byte
			}{
				{"/v1/ranks", wire.KindRankRequest, TagRanksDelta},
				{"/v1/votes", wire.KindVoteRequest, TagVoteBitmap},
			} {
				rec := httptest.NewRecorder()
				body := appendRequest(nil, ep.kind, request{Model: m, Layer: li, Rate: 0.5})
				cs.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body)))
				if rec.Code != http.StatusOK || rec.Body.Len() == 0 || rec.Body.Bytes()[0] != ep.tag {
					t.Fatalf("%s at %v: %s answered HTTP %d, payload %x…, want tag 0x%02x",
						who, quant, ep.path, rec.Code, rec.Body.Bytes()[:min(rec.Body.Len(), 4)], ep.tag)
				}
			}
			addr, err := cs.Serve("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			wantRanks := p.RankReport(m, li)
			for via, rc := range map[string]*RemoteClient{
				"client server": NewRemoteClient(p.ID(), addr),
				"fleet":         NewRemoteClient(p.ID(), FleetClientAddr(fleetAddr, p.ID())),
			} {
				ranks, err := rc.TryRankReport(ctx, m, li)
				if err != nil || !slices.Equal(ranks, wantRanks) {
					t.Errorf("%s at %v through the %s: ranks %v (err %v), want %v", who, quant, via, ranks, err, wantRanks)
				}
				for _, rate := range []float64{0.3, 0.5} {
					votes, err := rc.TryVoteReport(ctx, m, li, rate)
					if want := p.VoteReport(m, li, rate); err != nil || !slices.Equal(votes, want) {
						t.Errorf("%s at %v through the %s: votes at %g %v (err %v), want %v", who, quant, via, rate, votes, err, want)
					}
				}
			}
			_ = cs.Shutdown(ctx)
		}
		_ = fleet.Shutdown(ctx)
	}
}

// TestReportOnANonPrunableLayerIsRejected: a rank or vote request naming
// an in-range layer that has no units to report on (a ReLU, a pool) is a
// 400 from the slot's validation, which the stub takes as permanent — one
// attempt, no retry — and the participant is never called, so no handler
// panics.
func TestReportOnANonPrunableLayerIsRejected(t *testing.T) {
	train, _ := dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 4, TestPerClass: 1, Seed: 110})
	template := nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rand.New(rand.NewSource(111)))
	client := fl.NewClient(0, train, template, fl.Config{Rounds: 1, LocalEpochs: 1, BatchSize: 20, LR: 0.05}, 112)
	layer := -1
	for i := 0; i < template.NumLayers() && layer < 0; i++ {
		if _, ok := template.Layer(i).(nn.Prunable); !ok {
			layer = i
		}
	}
	if layer < 0 {
		t.Fatal("SmallCNN has no layer without units")
	}
	cs := NewClientServer(client, template)
	addr, err := cs.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Shutdown(context.Background())
	rc := NewRemoteClient(0, addr, WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}))

	calls := map[string]func() error{
		"ranks": func() error { _, err := rc.TryRankReport(context.Background(), template, layer); return err },
		"votes": func() error { _, err := rc.TryVoteReport(context.Background(), template, layer, 0.5); return err },
	}
	for name, call := range calls {
		attempts, panics := obs.M.TransportAttempts.Value(), obs.M.FedloadHandlerPanics.Value()
		err := call()
		var se *StatusError
		if !errors.As(err, &se) || se.Code < 400 || se.Code >= 500 {
			t.Fatalf("%s on layer %d: err = %v, want a 4xx StatusError", name, layer, err)
		}
		if got := obs.M.TransportAttempts.Value() - attempts; got != 1 {
			t.Errorf("%s on layer %d: %d attempts, want 1", name, layer, got)
		}
		if got := obs.M.FedloadHandlerPanics.Value() - panics; got != 0 {
			t.Errorf("%s on layer %d: fedload_handler_panics_total moved by %d", name, layer, got)
		}
	}
}
