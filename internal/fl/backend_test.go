package fl

import (
	"bytes"
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

// A checkpoint of a float32-trained global model round-trips bit-exactly
// through EncodeVersionedModel/LoadAny, and the restored model keeps the canonical float64
// backend semantics (backends are a runtime choice, not serialized state).
func TestFloat32TrainedCheckpointRoundTrip(t *testing.T) {
	s := buildFederation32(t)
	s.Train(nil)
	in := nn.Input{C: 1, H: 16, W: 16}
	data, err := nn.EncodeVersionedModel("small", in, 10, s.Model)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := nn.LoadAny(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, got := s.Model.ParamsVector(), loaded.ParamsVector()
	if len(want) != len(got) {
		t.Fatalf("restored vector length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("param %d: %v != %v after checkpoint round-trip", i, got[i], want[i])
		}
	}
	if loaded.Backend() != nn.Float64 {
		t.Fatalf("restored backend %v, want the Float64 default", loaded.Backend())
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
