package nn

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// The hashes below were captured at the parent of the commit that put
// AVX2 micro-kernels under the tiled matmuls (DESIGN.md §3), when every
// kernel was the pure-Go loop. They pin "bit-identical" on a whole model
// inside tier-1: the assembly path (AVX2 hosts) and the Go fallback (older
// CPUs) must both reproduce them. The file is amd64-only because the
// cross-architecture identity is not established: math.Exp (the loss) has
// per-architecture assembly that fuses multiply-adds where the CPU has
// them (ROADMAP 8(b)).
const (
	pinnedSmallCNNFloat64 = 0x073f3652b862c42a
	pinnedMiniVGGFloat32  = 0x18d8b65dceffc1cc
)

// The remaining (model, backend) pairs and the inference paths other than
// Forward, captured at the parent of the commit that made the layer stack
// generic over the element type (DESIGN.md §4): BatchNorm's float64 path
// and SmallCNN's float32 path had no whole-model hash before it.
const (
	pinnedSmallCNNFloat32 = 0x3fd25745ce86d973
	pinnedMiniVGGFloat64  = 0x0b41a7b9abe70983
)

// pinnedPaths pins, per (model, backend), pinnedPathsHash: the paths that
// report recording and the cached evaluators run.
var pinnedPaths = []struct {
	name    string
	build   ModelBuilder
	in      Input
	backend Backend
	want    uint64
}{
	{"SmallCNN/float64", NewSmallCNN, in1, Float64, 0xef4b7edb1a425d45},
	{"SmallCNN/float32", NewSmallCNN, in1, Float32, 0xa5922f5586dbf381},
	{"MiniVGG/float64", NewMiniVGG, in3, Float64, 0x59e7dffa4dd79965},
	{"MiniVGG/float32", NewMiniVGG, in3, Float32, 0xfa61cff26f625051},
}

// pinnedTrained runs three seeded SGD steps on a batch of 20 and returns
// the model with an eval batch of 7 (a row count the 4-row kernels must
// split into a group plus a remainder).
func pinnedTrained(build ModelBuilder, in Input, backend Backend) (*Sequential, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(15))
	m := build(in, 10, rng)
	m.SetBackend(backend)
	opt := NewSGD(0.05, 0.9, 1e-4)
	x := tensor.New(20, in.C, in.H, in.W)
	x.Randn(rng, 1)
	labels := make([]int, 20)
	for i := range labels {
		labels[i] = (i * 7) % 10
	}
	for step := 0; step < 3; step++ {
		m.ZeroGrads()
		logits := m.Forward(x, true)
		_, d := SoftmaxXent(logits, labels)
		m.BackwardParams(d)
		opt.Step(m)
	}
	ex := tensor.New(7, in.C, in.H, in.W)
	ex.Randn(rng, 1)
	return m, ex
}

// hashFloats feeds every bit of vals to h.
func hashFloats(h hash.Hash64, vals []float64) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// pinnedModelHash hashes every parameter and logit bit after the steps of
// pinnedTrained and one eval forward.
func pinnedModelHash(build ModelBuilder, in Input, backend Backend) uint64 {
	m, ex := pinnedTrained(build, in, backend)
	logits := m.Forward(ex, false)
	h := fnv.New64a()
	hashFloats(h, m.ParamsVector())
	hashFloats(h, logits.Data)
	return h.Sum64()
}

// pinnedPathsHash hashes, after the steps of pinnedTrained, every layer
// output as ForwardTo(1..NumLayers) returns it and the boundary and output
// of the ForwardTo/ForwardFrom split at the last conv, twice over: on cold
// buffers, then on warm ones.
func pinnedPathsHash(build ModelBuilder, in Input, backend Backend) uint64 {
	m, ex := pinnedTrained(build, in, backend)
	li := m.LastConvIndex()
	h := fnv.New64a()
	for pass := 0; pass < 2; pass++ {
		for hi := 1; hi <= m.NumLayers(); hi++ {
			hashFloats(h, m.ForwardTo(hi, ex).Data)
		}
		mid := m.ForwardTo(li, ex)
		hashFloats(h, mid.Data)
		hashFloats(h, m.ForwardFrom(li, mid).Data)
	}
	return h.Sum64()
}

func checkPinned(t *testing.T, what string, got, want uint64) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: hash %#x, want %#x (captured at the parent commit)", what, got, want)
	}
}

func TestParentPinnedSmallCNNFloat64(t *testing.T) {
	checkPinned(t, "SmallCNN float64 parameters+logits", pinnedModelHash(NewSmallCNN, in1, Float64), pinnedSmallCNNFloat64)
}

func TestParentPinnedMiniVGGFloat32(t *testing.T) {
	checkPinned(t, "MiniVGG float32 parameters+logits", pinnedModelHash(NewMiniVGG, in3, Float32), pinnedMiniVGGFloat32)
}

func TestParentPinnedSmallCNNFloat32(t *testing.T) {
	checkPinned(t, "SmallCNN float32 parameters+logits", pinnedModelHash(NewSmallCNN, in1, Float32), pinnedSmallCNNFloat32)
}

func TestParentPinnedMiniVGGFloat64(t *testing.T) {
	checkPinned(t, "MiniVGG float64 parameters+logits", pinnedModelHash(NewMiniVGG, in3, Float64), pinnedMiniVGGFloat64)
}

func TestParentPinnedInferencePaths(t *testing.T) {
	for _, p := range pinnedPaths {
		t.Run(p.name, func(t *testing.T) {
			checkPinned(t, p.name+" activations and split", pinnedPathsHash(p.build, p.in, p.backend), p.want)
		})
	}
}
