package fl

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/big"
	"sync"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// refSyntheticStream is the synthetic stream written out independently of
// synthetic.go: the key is hash/fnv's FNV-1a over the words' little-endian
// bytes, the counter is a wyrand generator's running state, the 128-bit
// product is math/big's, and the top 53 bits are read unsigned and
// re-centred by hand.
func refSyntheticStream(n int, words ...uint64) []float64 {
	h := fnv.New64a()
	for _, w := range words {
		_ = binary.Write(h, binary.LittleEndian, w)
	}
	state := h.Sum64()
	word := new(big.Int).Lsh(big.NewInt(1), 64)
	out := make([]float64, n)
	for i := range out {
		state += 0xa0761d6478bd642f
		p := new(big.Int).Mul(new(big.Int).SetUint64(state), new(big.Int).SetUint64(state^0xe7037ed1a0b428db))
		hi, lo := new(big.Int).DivMod(p, word, new(big.Int))
		z := hi.Uint64() ^ lo.Uint64()
		top := int64(z >> 11) // [0, 2^53)
		if top >= 1<<52 {
			top -= 1 << 53 // the sign bit of the 53-bit field
		}
		out[i] = float64(top) / (1 << 52)
	}
	return out
}

// TestSyntheticStreamIsPinned pins SyntheticClient's deltas and canned
// activations to refSyntheticStream, bit for bit, and checks the stream's
// three promises: every coordinate lies in [-Scale, Scale), a delta's first
// m coordinates do not depend on the vector's length, and overlapping calls
// return the values a lone call does.
func TestSyntheticStreamIsPinned(t *testing.T) {
	const n = 4096
	global := make([]float64, n)
	for _, c := range []*SyntheticClient{
		{Id: 7, Seed: 98},
		{Id: 0, Seed: 0, Scale: 1},
		{Id: 9999, Seed: -3, Scale: 0.37},
		{Id: 12, Seed: 1 << 40, Scale: 3e-7},
	} {
		scale := c.Scale
		if scale == 0 {
			scale = 1e-3
		}
		for _, round := range []int{0, 1, 5, 1 << 20} {
			ref := refSyntheticStream(n, uint64(c.Seed), uint64(c.Id), uint64(round))
			d := c.LocalUpdate(global, round)
			for i, v := range d {
				if want := scale * ref[i]; math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("client %+v round %d: delta[%d] = %v, want %v", *c, round, i, v, want)
				}
				if !(v >= -scale && v < scale) {
					t.Fatalf("client %+v round %d: delta[%d] = %v outside [-%v, %v)", *c, round, i, v, scale, scale)
				}
			}
			for _, m := range []int{0, 1, 17, 1000} {
				short := c.LocalUpdate(global[:m], round)
				for i, v := range short {
					if v != d[i] {
						t.Fatalf("client %+v round %d: length-%d delta[%d] = %v, want the length-%d delta's %v", *c, round, m, i, v, n, d[i])
					}
				}
				wire.PutFloat64s(short)
			}
			wire.PutFloat64s(d)
		}
	}

	c := &SyntheticClient{Id: 7, Seed: 98, Units: 300}
	for _, layer := range []int{0, 3} {
		ref := refSyntheticStream(c.Units, syntheticDomainActs, 98, 7, uint64(layer))
		for i, v := range c.activations(layer) {
			if math.Float64bits(v) != math.Float64bits(ref[i]) {
				t.Fatalf("layer %d: activation[%d] = %v, want %v", layer, i, v, ref[i])
			}
			if !(v >= -1 && v < 1) {
				t.Fatalf("layer %d: activation[%d] = %v outside [-1, 1)", layer, i, v)
			}
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			ref := refSyntheticStream(n, 98, 7, uint64(round))
			for rep := 0; rep < 4; rep++ {
				d := c.LocalUpdate(global, round)
				for i, v := range d {
					if want := 1e-3 * ref[i]; v != want {
						t.Errorf("concurrent round %d: delta[%d] = %v, want %v", round, i, v, want)
						break
					}
				}
				wire.PutFloat64s(d)
			}
		}(g % 3)
	}
	wg.Wait()
}

// BenchmarkSyntheticLocalUpdate is one synthetic update at SmallCNN's
// 18 346 parameters, the vector handed back as a fleet handler does.
func BenchmarkSyntheticLocalUpdate(b *testing.B) {
	c := &SyntheticClient{Id: 7, Seed: 1}
	global := make([]float64, 18346)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire.PutFloat64s(c.LocalUpdate(global, i))
	}
}

// BenchmarkSyntheticRankReport is one synthetic rank report at the default
// 64 units.
func BenchmarkSyntheticRankReport(b *testing.B) {
	c := &SyntheticClient{Id: 7, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.RankReport(nil, i)
	}
}
