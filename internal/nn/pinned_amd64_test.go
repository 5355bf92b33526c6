package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// The hashes below were captured at the parent of the commit that put
// AVX2 micro-kernels under the tiled matmuls (DESIGN.md §17), when every
// kernel was the pure-Go loop. They pin "bit-identical" on a whole model
// inside tier-1: the assembly path (AVX2 hosts) and the Go fallback (older
// CPUs) must both reproduce them. The file is amd64-only because arm64
// fuses multiply-adds in pure Go, which legitimately changes the bits.
const (
	pinnedSmallCNNFloat64 = 0x073f3652b862c42a
	pinnedMiniVGGFloat32  = 0x18d8b65dceffc1cc
)

// pinnedModelHash runs three seeded SGD steps on a batch of 20 and one
// eval forward on a batch of 7 (a row count the 4-row kernels must split
// into a group plus a remainder), then hashes every parameter and logit
// bit.
func pinnedModelHash(build ModelBuilder, in Input, backend Backend) uint64 {
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
	logits := m.Forward(ex, false)

	h := fnv.New64a()
	var buf [8]byte
	for _, vals := range [][]float64{m.ParamsVector(), logits.Data} {
		for _, v := range vals {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func TestParentPinnedSmallCNNFloat64(t *testing.T) {
	if got := pinnedModelHash(NewSmallCNN, in1, Float64); got != pinnedSmallCNNFloat64 {
		t.Fatalf("SmallCNN float64: parameter+logit hash %#x, want %#x (captured at the parent commit)", got, uint64(pinnedSmallCNNFloat64))
	}
}

func TestParentPinnedMiniVGGFloat32(t *testing.T) {
	if got := pinnedModelHash(NewMiniVGG, in3, Float32); got != pinnedMiniVGGFloat32 {
		t.Fatalf("MiniVGG float32: parameter+logit hash %#x, want %#x (captured at the parent commit)", got, uint64(pinnedMiniVGGFloat32))
	}
}
