package fl

import (
	"sync/atomic"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// explodingClient panics in the rounds listed and counts its calls.
type explodingClient struct {
	fakeParticipant
	in    map[int]bool
	calls atomic.Int64
}

func (c *explodingClient) LocalUpdate(global []float64, round int) []float64 {
	c.calls.Add(1)
	if c.in[round] {
		panic(c.id)
	}
	return c.fakeParticipant.LocalUpdate(global, round)
}

// TestParticipantPanicReachesTheRoundsCaller: a participant that panics
// inside LocalUpdate does so on a collection worker, where nobody could
// recover it. The round hands the panic to its own caller — the first in
// participant order when two clients panic — after every sibling has
// returned, leaves the model alone, and the server runs the next round as
// if the lost one had never been drawn. Streaming or not.
func TestParticipantPanicReachesTheRoundsCaller(t *testing.T) {
	_, _, template, cfg := tinySetup(t, 141)
	n := template.NumParams()
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	for _, streaming := range []bool{false, true} {
		cfg.Streaming, cfg.Shards, cfg.StreamWindow = streaming, 3, 2
		build := func(in map[int]bool) (*Server, []*explodingClient) {
			clients := make([]*explodingClient, 8)
			parts := make([]Participant, len(clients))
			for i := range clients {
				clients[i] = &explodingClient{fakeParticipant: fakeParticipant{id: i, delta: scaled(n, float64(i+1))}}
				parts[i] = clients[i]
			}
			clients[2].in, clients[5].in = in, in
			return NewServer(template, parts, cfg, 142), clients
		}
		s, clients := build(map[int]bool{1: true})
		ref, _ := build(nil)
		s.RoundDetail(0)
		ref.RoundDetail(0)
		before := s.Model.ParamsVector()
		func() {
			defer func() {
				if v := recover(); v != 2 {
					t.Fatalf("streaming=%v: round 1 raised %v, want client 2's panic", streaming, v)
				}
			}()
			s.RoundDetail(1)
			t.Fatalf("streaming=%v: round 1 returned over a panicking participant", streaming)
		}()
		for i, c := range clients {
			if got := c.calls.Load(); got != 2 {
				t.Fatalf("streaming=%v: client %d was called %d times over two rounds", streaming, i, got)
			}
		}
		for i, v := range s.Model.ParamsVector() {
			if v != before[i] {
				t.Fatalf("streaming=%v: the lost round moved param %d", streaming, i)
			}
		}
		if res := s.RoundDetail(2); !res.Applied || len(res.Completed) != len(clients) {
			t.Fatalf("streaming=%v: round after the panic: %+v", streaming, res)
		}
		ref.RoundDetail(2)
		want := ref.Model.ParamsVector()
		for i, v := range s.Model.ParamsVector() {
			if v != want[i] {
				t.Fatalf("streaming=%v: param %d = %v after the panic, %v without it", streaming, i, v, want[i])
			}
		}
	}
}
