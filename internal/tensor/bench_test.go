package tensor

import (
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// Micro-benchmarks for the numeric kernels the whole training stack sits
// on. ns/op here multiplies through every federated experiment.

func benchMat(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	a := New(m, k)
	a.Randn(rng, 1)
	bb := New(k, n)
	bb.Randn(rng, 1)
	dst := New(m, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, bb)
	}
	b.SetBytes(int64(8 * (m*k + k*n + m*n)))
}

func BenchmarkMatMul16x144x64(b *testing.B)   { benchMat(b, 16, 144, 64) } // conv2 of SmallCNN
func BenchmarkMatMul64x256x64(b *testing.B)   { benchMat(b, 64, 256, 64) } // dense layers
func BenchmarkMatMul128x128x128(b *testing.B) { benchMat(b, 128, 128, 128) }

// benchMatWorkers pins the worker count for the serial-vs-parallel matmul
// comparison. workers == 0 uses the automatic count (GOMAXPROCS).
func benchMatWorkers(b *testing.B, m, k, n, workers int) {
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	benchMat(b, m, k, n)
}

// BenchmarkMatMulInto is the canonical matmul benchmark: one serial dense
// product big enough to cross the cache-tile boundaries, pinned to one
// worker so it measures the kernel, not the machine's core count.
func BenchmarkMatMulInto(b *testing.B) { benchMatWorkers(b, 128, 256, 128, 1) }

// The 256³ pair is the headline serial-vs-parallel comparison: ~16.7M
// multiply-adds, far above parallelFlopCutoff, so the Parallel variant
// row-blocks across all available cores while Serial pins one worker.
func BenchmarkMatMul256x256x256Serial(b *testing.B)   { benchMatWorkers(b, 256, 256, 256, 1) }
func BenchmarkMatMul256x256x256Parallel(b *testing.B) { benchMatWorkers(b, 256, 256, 256, 0) }

func BenchmarkIm2Col16x16(b *testing.B) {
	d := ConvDims{C: 8, H: 16, W: 16, K: 3, Stride: 1, Pad: 1}
	img := make([]float64, d.C*d.H*d.W)
	rng := rand.New(rand.NewSource(2))
	for i := range img {
		img[i] = rng.NormFloat64()
	}
	dst := make([]float64, d.C*d.K*d.K*d.OutH()*d.OutW())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(img, d, dst)
	}
}

func BenchmarkCol2Im16x16(b *testing.B) {
	d := ConvDims{C: 8, H: 16, W: 16, K: 3, Stride: 1, Pad: 1}
	col := make([]float64, d.C*d.K*d.K*d.OutH()*d.OutW())
	rng := rand.New(rand.NewSource(3))
	for i := range col {
		col[i] = rng.NormFloat64()
	}
	dst := make([]float64, d.C*d.H*d.W)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] = 0
		}
		Col2Im(col, d, dst)
	}
}

// The benchmarks below report ns/elem — the figure the element-wise
// routines and the narrow-map tables were accepted at (DESIGN.md §18), so
// the bench-smoke artifact has something a later regression can be
// compared with.

// perElem times f, which makes one pass over elems elements, after one
// untimed call — bench-smoke runs a single iteration, which would
// otherwise time page faults and cold caches.
func perElem(b *testing.B, elems int, f func()) {
	f()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
}

func benchVecRelu[E Elem](b *testing.B) {
	const n = 8 * 16 * 16 // one SmallCNN conv1 activation map
	rng := rand.New(rand.NewSource(4))
	x, dst := randSlice[E](rng, n), make([]E, n)
	perElem(b, n, func() { Relu(dst, x) })
}

func BenchmarkVecRelu64(b *testing.B) { benchVecRelu[float64](b) }
func BenchmarkVecRelu32(b *testing.B) { benchVecRelu[float32](b) }

// narrowDims are MiniVGG's conv2, conv4 and conv8 on a 16×16 input: the
// 8-, 4- and 2-wide maps the table exists for.
var narrowDims = []struct {
	name string
	d    ConvDims
}{
	{"w8", ConvDims{C: 8, H: 8, W: 8, K: 3, Stride: 1, Pad: 1}},
	{"w4", ConvDims{C: 16, H: 4, W: 4, K: 3, Stride: 1, Pad: 1}},
	{"w2", ConvDims{C: 32, H: 2, W: 2, K: 3, Stride: 1, Pad: 1}},
}

// BenchmarkIm2ColNarrow is the table gather on the narrow maps; the walk
// sub-benchmarks run the float32 segment-copy Im2Col on the same geometry, the
// pair the crossover constant narrowConvWidth rests on.
func BenchmarkIm2ColNarrow(b *testing.B) {
	for _, g := range narrowDims {
		d := g.d
		rng := rand.New(rand.NewSource(5))
		img := randSlice[float32](rng, d.C*d.H*d.W)
		cells := d.C * d.K * d.K * d.OutH() * d.OutW()
		dst := make([]float32, cells)
		t := newConvIndex(d)
		stage := make([]float32, t.StageLen())
		b.Run(g.name, func(b *testing.B) {
			perElem(b, cells, func() { Im2ColIndexed(t, img, stage, dst) })
		})
		b.Run(g.name+"-walk", func(b *testing.B) {
			perElem(b, cells, func() { Im2Col(img, d, dst) })
		})
	}
}

func BenchmarkCol2ImNarrow(b *testing.B) {
	for _, g := range narrowDims {
		d := g.d
		rng := rand.New(rand.NewSource(6))
		cells := d.C * d.K * d.K * d.OutH() * d.OutW()
		col := randSlice[float32](rng, cells)
		dst := make([]float32, d.C*d.H*d.W)
		t := newConvIndex(d)
		stage := make([]float32, t.StageLen())
		b.Run(g.name, func(b *testing.B) {
			perElem(b, cells, func() {
				clear(dst)
				Col2ImIndexed(t, col, stage, dst)
			})
		})
		b.Run(g.name+"-walk", func(b *testing.B) {
			perElem(b, cells, func() {
				clear(dst)
				Col2Im(col, d, dst)
			})
		})
	}
}
