package fl

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// buildFederation32 is buildFederation with every participant's local
// training on the float32 backend (the backend rides on the template
// through Clone).
func buildFederation32(t *testing.T) *Server {
	t.Helper()
	train, _, template, cfg := tinySetup(t, 21)
	template.SetBackend(nn.Float32)
	const clients = 6
	shards := dataset.PartitionKLabel(train, clients, 3, 40, rand.New(rand.NewSource(22)))
	parts := make([]Participant, clients)
	for i := 0; i < clients; i++ {
		parts[i] = NewClient(i, shards[i], template, cfg, 200+int64(i))
	}
	return NewServer(template, parts, cfg, 300)
}

// Federated training on the float32 backend keeps aggregation and model
// state in float64: the aggregated global parameters generically carry
// more precision than float32 can hold, which could not happen if any
// stage quantized the update vectors or the optimizer state.
func TestFloat32RoundsAggregateInFloat64(t *testing.T) {
	s := buildFederation32(t)
	s.Train(nil)
	v := s.Model.ParamsVector()
	beyond := 0
	for _, x := range v {
		if !(math.Abs(x) < math.MaxFloat64) {
			t.Fatalf("non-finite aggregated parameter %v", x)
		}
		if float64(float32(x)) != x {
			beyond++
		}
	}
	// The SGD update and the client mean are computed in float64 from
	// float32-derived gradients, so almost every parameter should carry
	// float64-only digits. Require a solid majority to keep the test robust.
	if beyond < len(v)/2 {
		t.Fatalf("only %d/%d aggregated parameters carry float64-only precision; aggregation appears quantized to float32", beyond, len(v))
	}
}

// A float32-trained server's checkpoint restores the global model's
// canonical float64 parameters bit for bit. The backend is a runtime choice
// of the server that resumes, not checkpointed state: one built on the
// float64 backend keeps it.
func TestFloat32TrainedCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := buildFederation32(t)
	s.SetCheckpointer(&Checkpointer{Dir: dir})
	s.Train(nil)
	resumed := buildFederation32(t)
	resumed.Model.SetBackend(nn.Float64)
	if next, ok, err := resumed.ResumeLatest(dir); err != nil || !ok || next != s.Config().Rounds {
		t.Fatalf("resume: next %d, found %v, %v", next, ok, err)
	}
	want, got := s.Model.ParamsVector(), resumed.Model.ParamsVector()
	if len(want) != len(got) {
		t.Fatalf("restored vector length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("param %d: %v != %v after checkpoint round-trip", i, got[i], want[i])
		}
	}
	if resumed.Model.Backend() != nn.Float64 {
		t.Fatalf("restored backend %v, want the resuming server's Float64", resumed.Model.Backend())
	}
}

// The simulator's bit-identity guarantee holds on the float32 backend too:
// a full short training run yields a bit-identical global model for worker
// counts 1, 2 and 8.
func TestFloat32RoundParallelBitIdentical(t *testing.T) {
	run := func(w int) []float64 {
		prev := parallel.SetWorkers(w)
		defer parallel.SetWorkers(prev)
		s := buildFederation32(t)
		s.Train(nil)
		return s.Model.ParamsVector()
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("workers=%d: param %d = %v, want %v (not bit-identical)", w, i, got[i], ref[i])
			}
		}
	}
}
