package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvDimsOutput(t *testing.T) {
	d := ConvDims{C: 1, H: 5, W: 5, K: 3, Stride: 1, Pad: 0}
	if d.OutH() != 3 || d.OutW() != 3 {
		t.Fatalf("OutH/OutW = %d/%d, want 3/3", d.OutH(), d.OutW())
	}
	d.Pad = 1
	if d.OutH() != 5 || d.OutW() != 5 {
		t.Fatalf("padded OutH/OutW = %d/%d, want 5/5", d.OutH(), d.OutW())
	}
	d.Stride = 2
	if d.OutH() != 3 || d.OutW() != 3 {
		t.Fatalf("strided OutH/OutW = %d/%d, want 3/3", d.OutH(), d.OutW())
	}
}

func TestConvDimsValidate(t *testing.T) {
	good := ConvDims{C: 1, H: 4, W: 4, K: 3, Stride: 1, Pad: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid dims rejected: %v", err)
	}
	bad := []ConvDims{
		{C: 0, H: 4, W: 4, K: 3, Stride: 1},
		{C: 1, H: 4, W: 4, K: 0, Stride: 1},
		{C: 1, H: 4, W: 4, K: 3, Stride: 0},
		{C: 1, H: 2, W: 2, K: 5, Stride: 1, Pad: 0}, // empty output
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: bad dims %+v accepted", i, d)
		}
	}
}

// naiveConvRef computes a direct convolution as reference: weights (F,C,K,K)
// flat, image (C,H,W) flat, returns (F,outH,outW) flat.
func naiveConvRef(img, w []float64, d ConvDims, f int) []float64 {
	outH, outW := d.OutH(), d.OutW()
	out := make([]float64, f*outH*outW)
	for fi := 0; fi < f; fi++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				s := 0.0
				for c := 0; c < d.C; c++ {
					for ky := 0; ky < d.K; ky++ {
						iy := oy*d.Stride + ky - d.Pad
						if iy < 0 || iy >= d.H {
							continue
						}
						for kx := 0; kx < d.K; kx++ {
							ix := ox*d.Stride + kx - d.Pad
							if ix < 0 || ix >= d.W {
								continue
							}
							wv := w[((fi*d.C+c)*d.K+ky)*d.K+kx]
							iv := img[(c*d.H+iy)*d.W+ix]
							s += wv * iv
						}
					}
				}
				out[(fi*outH+oy)*outW+ox] = s
			}
		}
	}
	return out
}

func TestIm2ColMatMulMatchesNaiveConv(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := []ConvDims{
		{C: 1, H: 6, W: 6, K: 3, Stride: 1, Pad: 0},
		{C: 1, H: 6, W: 6, K: 3, Stride: 1, Pad: 1},
		{C: 3, H: 8, W: 8, K: 3, Stride: 2, Pad: 1},
		{C: 2, H: 5, W: 7, K: 2, Stride: 1, Pad: 0},
		{C: 1, H: 4, W: 4, K: 4, Stride: 1, Pad: 0}, // kernel == input
	}
	for ci, d := range cases {
		const f = 4
		img := make([]float64, d.C*d.H*d.W)
		for i := range img {
			img[i] = rng.NormFloat64()
		}
		w := make([]float64, f*d.C*d.K*d.K)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		cols := d.OutH() * d.OutW()
		col := make([]float64, d.C*d.K*d.K*cols)
		Im2Col(img, d, col)
		wm := FromSlice(w, f, d.C*d.K*d.K)
		cm := FromSlice(col, d.C*d.K*d.K, cols)
		got := MatMul(wm, cm)
		want := naiveConvRef(img, w, d, f)
		for i := range want {
			if math.Abs(got.Data[i]-want[i]) > 1e-9 {
				t.Fatalf("case %d: conv mismatch at %d: got %g want %g", ci, i, got.Data[i], want[i])
			}
		}
	}
}

// Property: Col2Im is the adjoint of Im2Col — for any x and y,
// <Im2Col(x), y> == <x, Col2Im(y)>. This is exactly the identity the
// conv backward pass relies on.
func TestCol2ImAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := ConvDims{
			C: 1 + r.Intn(3), H: 3 + r.Intn(5), W: 3 + r.Intn(5),
			K: 1 + r.Intn(3), Stride: 1 + r.Intn(2), Pad: r.Intn(2),
		}
		if d.Validate() != nil {
			return true // skip degenerate samples
		}
		n := d.C * d.H * d.W
		m := d.C * d.K * d.K * d.OutH() * d.OutW()
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		y := make([]float64, m)
		for i := range y {
			y[i] = r.NormFloat64()
		}
		ax := make([]float64, m)
		Im2Col(x, d, ax)
		aty := make([]float64, n)
		Col2Im(y, d, aty)
		var lhs, rhs float64
		for i := range ax {
			lhs += ax[i] * y[i]
		}
		for i := range x {
			rhs += x[i] * aty[i]
		}
		return math.Abs(lhs-rhs) <= 1e-8*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColPaddingProducesZeros(t *testing.T) {
	d := ConvDims{C: 1, H: 2, W: 2, K: 3, Stride: 1, Pad: 1}
	img := []float64{1, 2, 3, 4}
	col := make([]float64, d.C*d.K*d.K*d.OutH()*d.OutW())
	Im2Col(img, d, col)
	// Top-left output position with kernel offset (0,0) reads the padded
	// corner, which must be zero.
	if col[0] != 0 {
		t.Fatalf("padded corner = %g, want 0", col[0])
	}
	// Centre kernel offset (1,1) at output (0,0) reads img[0].
	centerRow := (1*3 + 1) // ky=1,kx=1
	if got := col[centerRow*4+0]; got != 1 {
		t.Fatalf("centre tap = %g, want 1", got)
	}
}

func TestIm2ColLengthMismatchPanics(t *testing.T) {
	d := ConvDims{C: 1, H: 4, W: 4, K: 3, Stride: 1, Pad: 0}
	defer func() {
		if recover() == nil {
			t.Fatal("Im2Col with short dst did not panic")
		}
	}()
	Im2Col(make([]float64, 16), d, make([]float64, 3))
}

// checkConvIndex compares the table form with the walks on one geometry:
// the gather against im2colKernel, and the scatter-add against
// col2imKernel when both accumulate into the same non-zero image. Inputs
// carry signed zeros and a few NaNs, so "the padding reads +0" and "the
// adds arrive in the walk's order" are both checked by bits.
func checkConvIndex[E Elem](t *testing.T, rng *rand.Rand, d ConvDims) {
	t.Helper()
	tab := newConvIndex(d)
	imgLen := d.C * d.H * d.W
	cells := d.C * d.K * d.K * d.OutH() * d.OutW()
	sp := vecValues[E]()

	img := make([]E, imgLen)
	fillOperand(rng, img, sp)
	stage := randSlice[E](rng, tab.StageLen()) // stale contents must not matter
	got, want := randSlice[E](rng, cells), make([]E, cells)
	Im2ColIndexed(tab, img, stage, got)
	im2colKernel(img, d, want)
	if i, ok := sameCells(got, want); !ok {
		t.Fatalf("%+v: gathered cell %d = %v, walk %v", d, i, got[i], want[i])
	}

	col := make([]E, cells)
	fillOperand(rng, col, specials[E](false))
	gotImg := randSlice[E](rng, imgLen)
	wantImg := append([]E(nil), gotImg...)
	Col2ImIndexed(tab, col, stage, gotImg)
	col2imKernel(col, d, wantImg)
	if i, ok := sameCells(gotImg, wantImg); !ok {
		t.Fatalf("%+v: scattered cell %d = %v, walk %v", d, i, gotImg[i], wantImg[i])
	}
}

func TestConvIndexMatchesWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, c := range []int{1, 3, 32} {
					for w := 1; w <= 17; w++ {
						d := ConvDims{C: c, H: w + 2, W: w, K: k, Stride: stride, Pad: pad}
						if d.Validate() != nil {
							continue
						}
						checkConvIndex[float64](t, rng, d)
						checkConvIndex[float32](t, rng, d)
					}
				}
			}
		}
	}
}

// TestConvIndexForNarrowMapsOnly pins the rule that picks the table: the
// output width, nothing else.
func TestConvIndexForNarrowMapsOnly(t *testing.T) {
	for w := 1; w <= 17; w++ {
		d := ConvDims{C: 2, H: 3, W: w, K: 3, Stride: 1, Pad: 1}
		if got, want := ConvIndexFor(d) != nil, w <= narrowConvWidth; got != want {
			t.Errorf("output width %d: table built = %v, want %v", w, got, want)
		}
	}
}
