package dataset

import (
	"math"
	"math/rand"
)

// GenConfig controls synthetic dataset generation.
type GenConfig struct {
	// TrainPerClass and TestPerClass are sample counts per class.
	TrainPerClass, TestPerClass int
	// Seed drives all generation; identical seeds give identical datasets.
	Seed int64
}

// synthSpec bundles the difficulty knobs of one synthetic task family.
type synthSpec struct {
	shape Shape
	// noise is the per-pixel Gaussian sigma added to each sample.
	noise float64
	// shift is the maximum absolute per-sample translation in pixels.
	shift int
	// brightLo/brightHi bound the per-sample brightness multiplier.
	brightLo, brightHi float64
	// baseBlend > 0 mixes a shared group prototype into each class
	// prototype, making classes within a group confusable (Fashion-style).
	baseBlend float64
	// groups is the number of shared base-shape groups when baseBlend > 0.
	groups int
	// distort adds per-sample random pixel dropout with this probability.
	distort float64
	// margin keeps prototype content this many pixels away from the image
	// border, mirroring MNIST/Fashion-MNIST's empty frame. Corner backdoor
	// triggers land in this quiet zone, which is what lets trigger-detecting
	// neurons be dormant on clean data. The CIFAR stand-in's low-frequency
	// color field still covers the border, so its frame is textured, not
	// empty — as with real CIFAR images.
	margin int
}

const synthClasses = 10

// GenSynthMNIST generates the MNIST stand-in: 1×16×16 images with sharply
// distinct per-class stroke prototypes and mild noise, calibrated so the
// paper's small CNN reaches its ≈98% test-accuracy band.
func GenSynthMNIST(cfg GenConfig) (train, test *Dataset) {
	spec := synthSpec{
		shape:    Shape{C: 1, H: 16, W: 16},
		noise:    0.34,
		shift:    1,
		brightLo: 0.8, brightHi: 1.15,
		distort: 0.04,
		margin:  1,
	}
	return genSynth(cfg, spec)
}

// GenSynthFashion generates the Fashion-MNIST stand-in: same geometry as
// the MNIST stand-in but with shared base shapes between class groups,
// higher noise and dropout, landing in the ≈88% accuracy band.
func GenSynthFashion(cfg GenConfig) (train, test *Dataset) {
	spec := synthSpec{
		shape:    Shape{C: 1, H: 16, W: 16},
		noise:    0.30,
		shift:    1,
		brightLo: 0.7, brightHi: 1.2,
		baseBlend: 0.55,
		groups:    4,
		distort:   0.05,
		margin:    1,
	}
	return genSynth(cfg, spec)
}

// GenSynthCIFAR generates the CIFAR-10 stand-in: 3×16×16 color images built
// from class hue plus textured shapes under heavy noise, jitter and
// dropout, landing in the ≈72% accuracy band.
func GenSynthCIFAR(cfg GenConfig) (train, test *Dataset) {
	spec := synthSpec{
		shape:    Shape{C: 3, H: 16, W: 16},
		noise:    0.35,
		shift:    2,
		brightLo: 0.6, brightHi: 1.3,
		baseBlend: 0.5,
		groups:    5,
		distort:   0.08,
		margin:    1,
	}
	return genSynth(cfg, spec)
}

// genSynth builds the train and test splits for one spec.
func genSynth(cfg GenConfig, spec synthSpec) (train, test *Dataset) {
	protos := makePrototypes(cfg.Seed, spec)
	mk := func(perClass int, split int64) *Dataset {
		ds := &Dataset{Shape: spec.shape, Classes: synthClasses}
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + split))
		for class := 0; class < synthClasses; class++ {
			for i := 0; i < perClass; i++ {
				ds.Samples = append(ds.Samples, renderSample(protos[class], spec, class, rng))
			}
		}
		ds.Shuffle(rng)
		return ds
	}
	return mk(cfg.TrainPerClass, 1), mk(cfg.TestPerClass, 2)
}

// makePrototypes draws one deterministic prototype image per class.
func makePrototypes(seed int64, spec synthSpec) [][]float64 {
	protos := make([][]float64, synthClasses)
	var bases [][]float64
	if spec.baseBlend > 0 {
		bases = make([][]float64, spec.groups)
		for g := range bases {
			rng := rand.New(rand.NewSource(seed*7919 + int64(g) + 101))
			bases[g] = drawPrototype(spec.shape, spec.margin, rng)
		}
	}
	for class := 0; class < synthClasses; class++ {
		rng := rand.New(rand.NewSource(seed*104_729 + int64(class) + 1))
		p := drawPrototype(spec.shape, spec.margin, rng)
		if spec.baseBlend > 0 {
			base := bases[class%spec.groups]
			for i := range p {
				p[i] = float64(spec.baseBlend*base[i]) + float64((1-spec.baseBlend)*p[i])
			}
		}
		protos[class] = p
	}
	return protos
}

// drawPrototype paints random strokes, blobs and rectangles onto a fresh
// canvas. Color channels receive correlated copies weighted by a per-class
// hue so 3-channel tasks carry both shape and color signal.
//
// Here and in the helpers, every product that feeds an add is written
// float64(a*b) so arm64 does not fuse it (make fusion-check) and draws
// amd64's datasets.
func drawPrototype(s Shape, margin int, rng *rand.Rand) []float64 {
	mono := make([]float64, s.H*s.W)
	spanW, spanH := s.W-2*margin, s.H-2*margin
	// 2-4 thick line strokes, confined to the content region.
	strokes := 2 + rng.Intn(3)
	for i := 0; i < strokes; i++ {
		drawLine(mono, s.H, s.W,
			margin+rng.Intn(spanW), margin+rng.Intn(spanH),
			margin+rng.Intn(spanW), margin+rng.Intn(spanH),
			0.7+float64(0.3*rng.Float64()))
	}
	// 1-2 blobs inside the content region.
	blobs := 1 + rng.Intn(2)
	for i := 0; i < blobs; i++ {
		drawBlob(mono, s.H, s.W,
			margin+1+rng.Intn(maxInt(spanW-2, 1)), margin+1+rng.Intn(maxInt(spanH-2, 1)),
			1.2+float64(1.8*rng.Float64()), 0.6+float64(0.4*rng.Float64()))
	}
	if s.C == 1 {
		return mono
	}
	// Per-channel hue weights in [0.2, 1.0].
	out := make([]float64, s.C*s.H*s.W)
	for c := 0; c < s.C; c++ {
		hue := 0.2 + float64(0.8*rng.Float64())
		for i, v := range mono {
			out[c*s.H*s.W+i] = hue * v
		}
	}
	// Low-frequency color texture so color alone does not decide the class.
	for c := 0; c < s.C; c++ {
		fx, fy := rng.Float64()*0.8, rng.Float64()*0.8
		// 2π is one constant: Float64()*2*π let arm64 write the exact
		// doubling as r+r and fuse Float64's scaling multiply into it.
		ph := float64(2 * math.Pi * rng.Float64())
		amp := 0.15 + float64(0.15*rng.Float64())
		for y := 0; y < s.H; y++ {
			for x := 0; x < s.W; x++ {
				arg := float64(fx*float64(x)) + float64(fy*float64(y)) + ph
				out[c*s.H*s.W+y*s.W+x] += float64(amp * (1 + math.Sin(arg)) / 2)
			}
		}
	}
	return out
}

// drawLine rasterizes a thick line segment onto a single-channel canvas.
func drawLine(canvas []float64, h, w, x0, y0, x1, y1 int, v float64) {
	steps := maxInt(absInt(x1-x0), absInt(y1-y0)) + 1
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		x := int(math.Round(float64(x0) + float64(t*float64(x1-x0))))
		y := int(math.Round(float64(y0) + float64(t*float64(y1-y0))))
		stamp(canvas, h, w, x, y, v)
		stamp(canvas, h, w, x+1, y, v*0.6)
		stamp(canvas, h, w, x, y+1, v*0.6)
	}
}

// drawBlob paints a soft Gaussian disc.
func drawBlob(canvas []float64, h, w, cx, cy int, r, v float64) {
	rad := int(math.Ceil(r * 2))
	for dy := -rad; dy <= rad; dy++ {
		for dx := -rad; dx <= rad; dx++ {
			x, y := cx+dx, cy+dy
			if x < 0 || x >= w || y < 0 || y >= h {
				continue
			}
			d2 := float64(dx*dx + dy*dy)
			canvas[y*w+x] += float64(v * math.Exp(-d2/(2*r*r)))
		}
	}
}

func stamp(canvas []float64, h, w, x, y int, v float64) {
	if x < 0 || x >= w || y < 0 || y >= h {
		return
	}
	if canvas[y*w+x] < v {
		canvas[y*w+x] = v
	}
}

// renderSample draws one noisy, shifted, brightness-jittered variant of a
// class prototype.
func renderSample(proto []float64, spec synthSpec, label int, rng *rand.Rand) Sample {
	s := spec.shape
	x := make([]float64, s.Elems())
	dx := rng.Intn(2*spec.shift+1) - spec.shift
	dy := rng.Intn(2*spec.shift+1) - spec.shift
	bright := spec.brightLo + float64((spec.brightHi-spec.brightLo)*rng.Float64())
	for c := 0; c < s.C; c++ {
		for y := 0; y < s.H; y++ {
			sy := y - dy
			for xx := 0; xx < s.W; xx++ {
				sx := xx - dx
				var v float64
				if sx >= 0 && sx < s.W && sy >= 0 && sy < s.H {
					v = proto[c*s.H*s.W+sy*s.W+sx]
				}
				v = float64(bright*v) + float64(rng.NormFloat64()*spec.noise)
				if spec.distort > 0 && rng.Float64() < spec.distort {
					v = 0
				}
				if v < 0 {
					v = 0
				} else if v > 1 {
					v = 1
				}
				x[c*s.H*s.W+y*s.W+xx] = v
			}
		}
	}
	return Sample{X: x, Label: label}
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
