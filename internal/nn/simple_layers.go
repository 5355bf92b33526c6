package nn

import (
	"fmt"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	name string

	// trained records that the last forward pass was a training one, so
	// that the cached output backward gates on is that pass's.
	trained bool

	// f64 and f32 are the layer's arithmetic in each precision.
	f64 reluPass[float64]
	f32 reluPass[float32]
}

// reluPass is ReLU's forward and backward in E.
type reluPass[E tensor.Elem] struct {
	l *ReLU

	// scratch holds the reusable output and backward dx buffers. Not
	// cloned.
	scratch tensor.ArenaOf[E]
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a named ReLU layer.
func NewReLU(name string) *ReLU {
	l := &ReLU{name: name}
	l.f64.l, l.f32.l = l, l
	return l
}

// Name implements Layer.
func (l *ReLU) Name() string { return l.name }

// Forward implements Layer.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return l.f64.forward(x, train) }

// Backward implements Layer.
func (l *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor { return l.f64.backward(dout) }

// passes implements Layer.
func (l *ReLU) passes() (pass[float64], pass[float32]) { return &l.f64, &l.f32 }

// forward is tensor.Relu, the builtin max(x, 0) element by element
// (branch-free on either kernel path; an if/else select costs a
// data-dependent branch per element that mispredicts ~50% of the time on
// activation-like inputs).
func (p *reluPass[E]) forward(x *tensor.Of[E], train bool) *tensor.Of[E] {
	out := p.scratch.GetLike(outSlot(train), x)
	tensor.Relu(out.Data, x.Data)
	p.l.trained = train
	return out
}

// backward gates dout by the cached training output: out is max(x, 0), so
// its bits are nonzero exactly where x > 0, and tensor.ReluBackward gates
// dout by that without a branch. dx lives in a reusable buffer.
func (p *reluPass[E]) backward(dout *tensor.Of[E]) *tensor.Of[E] {
	if !p.l.trained {
		panic(fmt.Sprintf("nn: %s: Backward without training Forward", p.l.name))
	}
	out := p.scratch.GetLike("out", dout)
	dx := p.scratch.GetLike("dx", dout)
	tensor.ReluBackward(dx.Data, dout.Data, out.Data)
	return dx
}

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// CloneLayer implements Layer.
func (l *ReLU) CloneLayer() Layer { return NewReLU(l.name) }

// Flatten reshapes (N, ...) batches to (N, D).
type Flatten struct {
	name    string
	inShape []int

	// f64 and f32 are the layer's arithmetic in each precision.
	f64 flattenPass[float64]
	f32 flattenPass[float32]
}

// flattenPass is Flatten's forward and backward in E.
type flattenPass[E tensor.Elem] struct {
	l *Flatten

	// hdrs holds persistent reshape headers per batch size, re-pointed at
	// the caller's data each training step. Keying by batch size keeps a
	// training loop that alternates full and tail batches allocation-free
	// once both sizes have been seen.
	hdrs map[int]*flattenHdrs[E]
}

// flattenHdrs is one batch size's set of reshape headers (training output,
// backward dx, and inference output).
type flattenHdrs[E tensor.Elem] struct {
	out, dx, eout *tensor.Of[E]
}

var _ Layer = (*Flatten)(nil)

// NewFlatten returns a named Flatten layer.
func NewFlatten(name string) *Flatten {
	l := &Flatten{name: name}
	l.f64.l, l.f32.l = l, l
	return l
}

// Name implements Layer.
func (l *Flatten) Name() string { return l.name }

// Forward implements Layer.
func (l *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.f64.forward(x, train)
}

// Backward implements Layer.
func (l *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor { return l.f64.backward(dout) }

// passes implements Layer.
func (l *Flatten) passes() (pass[float64], pass[float32]) { return &l.f64, &l.f32 }

func (p *flattenPass[E]) forward(x *tensor.Of[E], train bool) *tensor.Of[E] {
	n := x.Dim(0)
	d := x.Len() / n
	h := p.headers(n)
	out := &h.eout
	if train {
		setShape(&p.l.inShape, x)
		out = &h.out
	}
	if *out == nil || (*out).Dim(1) != d {
		*out = x.Reshape(n, d)
	} else {
		(*out).Data = x.Data
	}
	return *out
}

// headers returns the reshape-header set for batch size n, creating it on
// first sight of the size.
func (p *flattenPass[E]) headers(n int) *flattenHdrs[E] {
	if h, ok := p.hdrs[n]; ok {
		return h
	}
	if p.hdrs == nil {
		p.hdrs = make(map[int]*flattenHdrs[E])
	}
	h := &flattenHdrs[E]{}
	p.hdrs[n] = h
	return h
}

func (p *flattenPass[E]) backward(dout *tensor.Of[E]) *tensor.Of[E] {
	inShape := p.l.inShape
	if inShape == nil {
		panic(fmt.Sprintf("nn: %s: Backward without training Forward", p.l.name))
	}
	h := p.headers(inShape[0])
	if h.dx == nil || !sameShape(h.dx, inShape) {
		h.dx = dout.Reshape(inShape...)
	} else {
		h.dx.Data = dout.Data
	}
	return h.dx
}

// sameShape reports whether t's shape equals shape.
func sameShape[E tensor.Elem](t *tensor.Of[E], shape []int) bool {
	if t.Rank() != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.Dim(i) != d {
			return false
		}
	}
	return true
}

// Params implements Layer.
func (l *Flatten) Params() []*Param { return nil }

// CloneLayer implements Layer.
func (l *Flatten) CloneLayer() Layer { return NewFlatten(l.name) }

// MaxPool2D performs non-overlapping (or strided) 2-D max pooling over NCHW
// batches.
type MaxPool2D struct {
	name   string
	size   int
	stride int

	inShape []int
	argmax  []int // flat input index chosen for each output element

	// f64 and f32 are the layer's arithmetic in each precision.
	f64 poolPass[float64]
	f32 poolPass[float32]
}

// poolPass is MaxPool2D's forward and backward in E.
type poolPass[E tensor.Elem] struct {
	l *MaxPool2D

	// scratch holds the reusable train-mode output and backward dx
	// buffers. Not cloned.
	scratch tensor.ArenaOf[E]
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D builds a max-pooling layer with a square window.
func NewMaxPool2D(name string, size, stride int) *MaxPool2D {
	if size <= 0 || stride <= 0 {
		panic(fmt.Sprintf("nn: %s: bad pool size/stride %d/%d", name, size, stride))
	}
	l := &MaxPool2D{name: name, size: size, stride: stride}
	l.f64.l, l.f32.l = l, l
	return l
}

// Name implements Layer.
func (l *MaxPool2D) Name() string { return l.name }

// Forward implements Layer for x of shape (N, C, H, W).
func (l *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.f64.forward(x, train)
}

// Backward implements Layer.
func (l *MaxPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor { return l.f64.backward(dout) }

// passes implements Layer.
func (l *MaxPool2D) passes() (pass[float64], pass[float32]) { return &l.f64, &l.f32 }

func (p *poolPass[E]) forward(x *tensor.Of[E], train bool) *tensor.Of[E] {
	l := p.l
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s: input rank %d, want 4", l.name, x.Rank()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outH := (h-l.size)/l.stride + 1
	outW := (w-l.size)/l.stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("nn: %s: window %d too large for %d×%d input", l.name, l.size, h, w))
	}
	out := p.scratch.Get(outSlot(train), n, c, outH, outW)
	if train {
		setShape(&l.inShape, x)
		if cap(l.argmax) < out.Len() {
			l.argmax = make([]int, out.Len())
		}
		l.argmax = l.argmax[:out.Len()]
	} else {
		l.argmax = nil
	}
	if l.size == 2 && l.stride == 2 {
		pool2x2(x.Data, out.Data, l.argmax, n*c, h, w, outH, outW)
		return out
	}
	poolWindow(x.Data, out.Data, l.argmax, n*c, h, w, outH, outW, l.size, l.stride)
	return out
}

// poolWindow is the generic max-pooling walk for an arbitrary square
// window. argmax is nil on inference passes.
func poolWindow[E tensor.Elem](x, out []E, argmax []int, nc, h, w, outH, outW, size, stride int) {
	oi := 0
	for s := 0; s < nc; s++ {
		base := s * h * w
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				iy0, ix0 := oy*stride, ox*stride
				bestIdx := base + iy0*w + ix0
				best := x[bestIdx]
				for ky := 0; ky < size; ky++ {
					rowBase := base + (iy0+ky)*w
					for kx := 0; kx < size; kx++ {
						idx := rowBase + ix0 + kx
						if x[idx] > best {
							best, bestIdx = x[idx], idx
						}
					}
				}
				out[oi] = best
				if argmax != nil {
					argmax[oi] = bestIdx
				}
				oi++
			}
		}
	}
}

// pool2x2 is the specialized kernel for the 2×2/stride-2 window every
// shipped model uses. The running maximum is the max builtin (branch-free)
// and the argmax falls out of strict-greater selects that compile to
// conditional moves, so the data-dependent branches of the generic window
// walk — which mispredict on activation-like inputs — disappear (measured
// ~3× faster). The argmax matches the generic walk bit for bit (first
// maximum in ky-major/kx-minor order wins; ±0 ties compare equal either
// way); the value can differ from the select chain only in the sign of a
// zero. argmax is nil on inference passes.
func pool2x2[E tensor.Elem](x, out []E, argmax []int, nc, h, w, outH, outW int) {
	oi := 0
	for s := 0; s < nc; s++ {
		base := s * h * w
		for oy := 0; oy < outH; oy++ {
			r0 := base + 2*oy*w
			r1 := r0 + w
			if argmax != nil {
				for ox := 0; ox < outW; ox++ {
					i0 := r0 + 2*ox
					i2 := r1 + 2*ox
					v0, v1, v2, v3 := x[i0], x[i0+1], x[i2], x[i2+1]
					bi := i0
					if v1 > v0 {
						bi = i0 + 1
					}
					vb := max(v0, v1)
					if v2 > vb {
						bi = i2
					}
					vb = max(vb, v2)
					if v3 > vb {
						bi = i2 + 1
					}
					out[oi] = max(vb, v3)
					argmax[oi] = bi
					oi++
				}
			} else {
				for ox := 0; ox < outW; ox++ {
					i0 := r0 + 2*ox
					i2 := r1 + 2*ox
					out[oi] = max(max(x[i0], x[i0+1]), max(x[i2], x[i2+1]))
					oi++
				}
			}
		}
	}
}

// backward scatters dout to the cached argmax; dx lives in a reusable
// buffer.
func (p *poolPass[E]) backward(dout *tensor.Of[E]) *tensor.Of[E] {
	l := p.l
	if l.argmax == nil {
		panic(fmt.Sprintf("nn: %s: Backward without training Forward", l.name))
	}
	dx := p.scratch.Get("dx", l.inShape...)
	dx.Zero() // the scatter below accumulates
	for oi, v := range dout.Data {
		dx.Data[l.argmax[oi]] += v
	}
	return dx
}

// Params implements Layer.
func (l *MaxPool2D) Params() []*Param { return nil }

// CloneLayer implements Layer.
func (l *MaxPool2D) CloneLayer() Layer { return NewMaxPool2D(l.name, l.size, l.stride) }
