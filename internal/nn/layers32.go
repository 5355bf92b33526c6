package nn

import (
	"fmt"

	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// Native float32 forward/backward paths for every shipped layer (the
// layer32 interface, see backend.go). Structure mirrors the float64
// methods line for line: same scratch-arena slots, same parallel blocking,
// same prune-mask handling. What does not depend on the buffer types is
// not mirrored but shared: every element-wise loop is a generic
// tensor function (tensor/vec.go), and BatchNorm's whole forward and
// backward (bnForward, bnBackward) and the conv bias-gradient row sums
// (addRowSums) are single generic functions in batchnorm.go and conv.go —
// the methods here only pick float32 buffers for them. The deliberate
// differences:
//
//   - Weights are float32 shadows, re-narrowed from the float64
//     Param.Value at the top of each forward pass. The narrowing is O(P)
//     against the O(N·P) matmul it feeds, and it means optimizer steps,
//     FedAvg updates and prune masks (all float64 mutations) are picked up
//     with no explicit sync. A masked weight is exactly 0.0 in float64 and
//     narrows to exactly 0.0 in float32, so pruning semantics carry over
//     bit-exactly.
//   - Parameter gradients are accumulated into the float64 Param.Grad
//     (tensor.AddWiden), keeping the optimizer, aggregation and checkpoint state
//     in canonical precision.
//   - float32 activations never leave the Sequential (the boundary widens
//     them), so eval outputs always live in layer scratch — there is no
//     caller-retention hazard and no fresh-allocation eval path.
//   - BatchNorm derives its per-channel batch statistics in float64
//     accumulators (summing thousands of float32 values in float32 loses
//     digits the tolerance harness would have to absorb) and updates the
//     float64 running statistics directly.

var (
	_ layer32 = (*Dense)(nil)
	_ layer32 = (*Conv2D)(nil)
	_ layer32 = (*BatchNorm2D)(nil)
	_ layer32 = (*ReLU)(nil)
	_ layer32 = (*Flatten)(nil)
	_ layer32 = (*MaxPool2D)(nil)
)

// shadowW32/shadowB32 return the layer's float32 weight and bias, freshly
// narrowed from the float64 parameters. The buffers live in the layer's
// float32 arena under fixed slots, so Backward32 can fetch the same
// (already synced) weights without re-narrowing.
func (l *Dense) shadowW32() *tensor.T32 {
	w := l.scratch32.Get("W", l.in, l.out)
	w.From64(l.W.Value)
	return w
}

func (l *Dense) shadowB32() *tensor.T32 {
	b := l.scratch32.Get("B", l.out)
	b.From64(l.B.Value)
	return b
}

// Forward32 implements layer32 for x of shape (N, In).
func (l *Dense) Forward32(x *tensor.T32, train bool) *tensor.T32 {
	if x.Rank() != 2 || x.Dim(1) != l.in {
		panic(fmt.Sprintf("nn: %s: input shape %v, want [N %d]", l.name, x.Shape(), l.in))
	}
	n := x.Dim(0)
	w := l.shadowW32()
	b := l.shadowB32()
	var out *tensor.T32
	if train {
		l.x32 = x
		out = l.scratch32.Get("out", n, l.out)
	} else {
		l.x32 = nil
		out = l.scratch32.Get("eout", n, l.out)
	}
	tensor.MatMulInto32(out, x, w)
	for s := 0; s < n; s++ {
		tensor.Add(out.Data[s*l.out:(s+1)*l.out], b.Data)
	}
	return out
}

// Backward32 implements layer32.
func (l *Dense) Backward32(dout *tensor.T32) *tensor.T32 {
	if l.x32 == nil {
		panic(fmt.Sprintf("nn: %s: Backward32 without training Forward32", l.name))
	}
	// dW = x32ᵀ · dout, accumulated into the float64 gradient.
	dW := l.scratch32.Get("dW", l.in, l.out)
	tensor.MatMulTransAInto32(dW, l.x32, dout)
	tensor.AddWiden(l.W.Grad.Data, dW.Data)
	n := dout.Dim(0)
	for s := 0; s < n; s++ {
		tensor.AddWiden(l.B.Grad.Data, dout.Data[s*l.out:(s+1)*l.out])
	}
	l.maskGrads()
	// dx = dout · Wᵀ, against the shadow weights Forward32 synced.
	dx := l.scratch32.Get("dx", n, l.in)
	w := l.scratch32.Get("W", l.in, l.out)
	tensor.MatMulTransBInto32(dx, dout, w)
	return dx
}

func (l *Conv2D) shadowW32() *tensor.T32 {
	fanIn := l.dims.C * l.dims.K * l.dims.K
	w := l.scratch32.Get("W", l.filters, fanIn)
	w.From64(l.W.Value)
	return w
}

func (l *Conv2D) shadowB32() *tensor.T32 {
	b := l.scratch32.Get("B", l.filters)
	b.From64(l.B.Value)
	return b
}

// ensureCols32 mirrors ensureCols for the float32 im2col backing.
func (l *Conv2D) ensureCols32(n, fanIn, spatial int) {
	backing := l.scratch32.Get("cols", n, fanIn, spatial)
	for len(l.colsHdr32) < n {
		l.colsHdr32 = append(l.colsHdr32, nil)
	}
	per := fanIn * spatial
	for s := 0; s < n; s++ {
		if l.colsHdr32[s] == nil {
			l.colsHdr32[s] = tensor.FromSlice32(backing.Data[s*per:(s+1)*per], fanIn, spatial)
		} else if l.colsFor32 != backing {
			l.colsHdr32[s].Data = backing.Data[s*per : (s+1)*per]
		}
	}
	l.colsFor32 = backing
	l.cols32 = l.colsHdr32[:n]
}

// setInShape32 caches the input batch shape without allocating when the
// rank is unchanged.
func (l *Conv2D) setInShape32(x *tensor.T32) {
	if len(l.inShape) != x.Rank() {
		l.inShape = make([]int, x.Rank())
	}
	for i := range l.inShape {
		l.inShape[i] = x.Dim(i)
	}
}

// Forward32 implements layer32 for x of shape (N, C, H, W), with the same
// sample-parallel blocking as Forward.
func (l *Conv2D) Forward32(x *tensor.T32, train bool) *tensor.T32 {
	n := x.Dim(0)
	d := l.dims
	if x.Rank() != 4 || x.Dim(1) != d.C || x.Dim(2) != d.H || x.Dim(3) != d.W {
		panic(fmt.Sprintf("nn: %s: input shape %v, want [N %d %d %d]", l.name, x.Shape(), d.C, d.H, d.W))
	}
	outH, outW := d.OutH(), d.OutW()
	spatial := outH * outW
	fanIn := d.C * d.K * d.K
	w := l.shadowW32()
	b := l.shadowB32()
	var out *tensor.T32
	if train {
		out = l.scratch32.Get("out", n, l.filters, outH, outW)
		l.ensureCols32(n, fanIn, spatial)
		l.setInShape32(x)
	} else {
		out = l.scratch32.Get("eout", n, l.filters, outH, outW)
		l.cols32 = nil
	}
	sampleIn := d.C * d.H * d.W
	work := n * l.filters * spatial * fanIn
	if parallel.Workers() > 1 && n > 1 && work >= convParallelCutoff {
		nb := parallel.NumBlocks(n)
		for len(l.blockRes32) < nb {
			l.blockRes32 = append(l.blockRes32, nil)
			l.blockCol32 = append(l.blockCol32, nil)
			l.blockStage32 = append(l.blockStage32, nil)
		}
		parallel.ForBlocksIndexed(n, func(blk, lo, hi int) {
			res, col, stage := l.blockScratch32(blk, fanIn, spatial)
			for s := lo; s < hi; s++ {
				l.forwardSample32(x, out, l.sampleCol32(col, s, train), res, stage, w, b, s, sampleIn, spatial)
			}
		})
		return out
	}
	res := l.scratch32.Get("res", l.filters, spatial)
	var col, stage *tensor.T32
	if !train {
		col = l.scratch32.Get("col", fanIn, spatial)
	}
	if l.index != nil {
		stage = l.scratch32.Get("stage", l.index.StageLen())
	}
	for s := 0; s < n; s++ {
		l.forwardSample32(x, out, l.sampleCol32(col, s, train), res, stage, w, b, s, sampleIn, spatial)
	}
	return out
}

// blockScratch32 mirrors blockScratch for the float32 sample-parallel
// forward.
func (l *Conv2D) blockScratch32(blk, fanIn, spatial int) (res, col, stage *tensor.T32) {
	if blk >= len(l.blockRes32) {
		return tensor.New32(l.filters, spatial), tensor.New32(fanIn, spatial), l.newStage32()
	}
	if l.blockRes32[blk] == nil {
		l.blockRes32[blk] = tensor.New32(l.filters, spatial)
		l.blockCol32[blk] = tensor.New32(fanIn, spatial)
		l.blockStage32[blk] = l.newStage32()
	}
	return l.blockRes32[blk], l.blockCol32[blk], l.blockStage32[blk]
}

// newStage32 mirrors newStage.
func (l *Conv2D) newStage32() *tensor.T32 {
	if l.index == nil {
		return nil
	}
	return tensor.New32(l.index.StageLen())
}

// sampleCol32 mirrors sampleCol.
func (l *Conv2D) sampleCol32(scratch *tensor.T32, s int, train bool) *tensor.T32 {
	if train {
		return l.cols32[s]
	}
	return scratch
}

// forwardSample32 convolves sample s, the float32 twin of forwardSample.
// The shadow weights w/b are read-only here, so concurrent sample blocks
// share them safely.
func (l *Conv2D) forwardSample32(x, out, col, res, stage, w, b *tensor.T32, s, sampleIn, spatial int) {
	img := x.Data[s*sampleIn : (s+1)*sampleIn]
	if l.index != nil {
		tensor.Im2ColIndexed(l.index, img, stage.Data, col.Data)
	} else {
		tensor.Im2Col32(img, l.dims, col.Data)
	}
	tensor.MatMulInto32(res, w, col)
	dst := out.Data[s*l.filters*spatial : (s+1)*l.filters*spatial]
	for f := 0; f < l.filters; f++ {
		tensor.AddScalar(dst[f*spatial:(f+1)*spatial], res.Data[f*spatial:(f+1)*spatial], b.Data[f])
	}
}

// Backward32 implements layer32.
func (l *Conv2D) Backward32(dout *tensor.T32) *tensor.T32 {
	return l.backwardImpl32(dout, true)
}

// backwardParams32 mirrors backwardParams for the float32 backend.
func (l *Conv2D) backwardParams32(dout *tensor.T32) { l.backwardImpl32(dout, false) }

func (l *Conv2D) backwardImpl32(dout *tensor.T32, needDX bool) *tensor.T32 {
	if l.cols32 == nil {
		panic(fmt.Sprintf("nn: %s: Backward32 without training Forward32", l.name))
	}
	n := len(l.cols32)
	d := l.dims
	spatial := d.OutH() * d.OutW()
	sampleIn := d.C * d.H * d.W
	fanIn := d.C * d.K * d.K
	var dx, dcol, w, stage *tensor.T32
	if needDX {
		dx = l.scratch32.Get("dx", l.inShape...)
		dx.Zero() // Col2Im accumulates
		dcol = l.scratch32.Get("dcol", fanIn, spatial)
		w = l.scratch32.Get("W", l.filters, fanIn) // synced by Forward32
		if l.index != nil {
			stage = l.scratch32.Get("stage", l.index.StageLen())
		}
	}
	dW := l.scratch32.Get("dW", l.filters, fanIn)
	if l.doutMat32 == nil {
		l.doutMat32 = tensor.FromSlice32(dout.Data[:l.filters*spatial], l.filters, spatial)
	}
	doutMat := l.doutMat32
	for s := 0; s < n; s++ {
		doutMat.Data = dout.Data[s*l.filters*spatial : (s+1)*l.filters*spatial]
		// dW += dout · colᵀ, accumulated into the float64 gradient.
		tensor.MatMulTransBInto32(dW, doutMat, l.cols32[s])
		tensor.AddWiden(l.W.Grad.Data, dW.Data)
		addRowSums(l.B.Grad.Data, doutMat.Data, spatial) // db += row sums of dout
		if needDX {
			// dx = col2im(Wᵀ · dout)
			tensor.MatMulTransAInto32(dcol, w, doutMat)
			dxs := dx.Data[s*sampleIn : (s+1)*sampleIn]
			if l.index != nil {
				tensor.Col2ImIndexed(l.index, dcol.Data, stage.Data, dxs)
			} else {
				tensor.Col2Im32(dcol.Data, d, dxs)
			}
		}
	}
	l.maskGrads()
	return dx
}

// Forward32 implements layer32 for x of shape (N, C, H, W). Per-channel
// batch statistics are accumulated in float64 (see the file comment) and
// the float64 running statistics are updated in place, so inference-time
// behaviour and checkpoint state match the canonical path up to the
// element-wise float32 rounding.
func (l *BatchNorm2D) Forward32(x *tensor.T32, train bool) *tensor.T32 {
	if x.Rank() != 4 || x.Dim(1) != l.channels {
		panic(fmt.Sprintf("nn: %s: input shape %v, want [N %d H W]", l.name, x.Shape(), l.channels))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	hw := h * w
	var out *tensor.T32
	if train {
		out = l.scratch32.GetLike("out", x)
		l.xhat32 = l.scratch32.GetLike("xhat", x)
		if len(l.invStd) != l.channels {
			l.invStd = make([]float64, l.channels)
		}
		l.n, l.hw = n, hw
		l.frozenPass = l.frozen
	} else {
		out = l.scratch32.GetLike("eout", x)
	}
	var xhat []float32
	if train {
		xhat = l.xhat32.Data
	}
	bnForward(l, out.Data, xhat, x.Data, n, hw, train)
	return out
}

// Backward32 implements layer32 with the same gradient as Backward; the
// per-channel reductions accumulate in float64.
func (l *BatchNorm2D) Backward32(dout *tensor.T32) *tensor.T32 {
	if l.xhat32 == nil {
		panic(fmt.Sprintf("nn: %s: Backward32 without training Forward32", l.name))
	}
	dx := l.scratch32.GetLike("dx", dout)
	bnBackward(l, dx.Data, dout.Data, l.xhat32.Data)
	return dx
}

// Forward32 implements layer32; the trained marker is shared with the
// float64 path (only one precision is active per model).
func (l *ReLU) Forward32(x *tensor.T32, train bool) *tensor.T32 {
	slot := "eout"
	if train {
		slot = "out"
	}
	out := l.scratch32.GetLike(slot, x)
	tensor.Relu(out.Data, x.Data)
	l.trained = train
	return out
}

// Backward32 implements layer32, gating dout by the bits of the cached
// training output exactly as the float64 Backward does.
func (l *ReLU) Backward32(dout *tensor.T32) *tensor.T32 {
	if !l.trained {
		panic(fmt.Sprintf("nn: %s: Backward32 without training Forward32", l.name))
	}
	out := l.scratch32.GetLike("out", dout)
	dx := l.scratch32.GetLike("dx", dout)
	tensor.ReluBackward(dx.Data, dout.Data, out.Data)
	return dx
}

// flattenHdrs32 is the float32 twin of flattenHdrs.
type flattenHdrs32 struct {
	out, dx, eout *tensor.T32
}

// headers32 mirrors headers for the float32 path.
func (l *Flatten) headers32(n int) *flattenHdrs32 {
	if h, ok := l.hdrs32[n]; ok {
		return h
	}
	if l.hdrs32 == nil {
		l.hdrs32 = make(map[int]*flattenHdrs32)
	}
	h := &flattenHdrs32{}
	l.hdrs32[n] = h
	return h
}

// Forward32 implements layer32. Unlike the float64 eval path, the reshape
// header is always persistent: float32 activations never escape the
// Sequential, so there is no retention hazard to guard against.
func (l *Flatten) Forward32(x *tensor.T32, train bool) *tensor.T32 {
	n := x.Dim(0)
	d := x.Len() / n
	h := l.headers32(n)
	if !train {
		if h.eout == nil || h.eout.Dim(1) != d {
			h.eout = x.Reshape(n, d)
		} else {
			h.eout.Data = x.Data
		}
		return h.eout
	}
	if len(l.inShape) != x.Rank() {
		l.inShape = make([]int, x.Rank())
	}
	for i := range l.inShape {
		l.inShape[i] = x.Dim(i)
	}
	if h.out == nil || h.out.Dim(1) != d {
		h.out = x.Reshape(n, d)
	} else {
		h.out.Data = x.Data
	}
	return h.out
}

// Backward32 implements layer32.
func (l *Flatten) Backward32(dout *tensor.T32) *tensor.T32 {
	if l.inShape == nil {
		panic(fmt.Sprintf("nn: %s: Backward32 without training Forward32", l.name))
	}
	h := l.headers32(l.inShape[0])
	if h.dx == nil || !sameShape32(h.dx, l.inShape) {
		h.dx = dout.Reshape(l.inShape...)
	} else {
		h.dx.Data = dout.Data
	}
	return h.dx
}

// sameShape32 reports whether t's shape equals shape.
func sameShape32(t *tensor.T32, shape []int) bool {
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

// Forward32 implements layer32 for x of shape (N, C, H, W); the argmax
// cache is shared with the float64 path.
func (l *MaxPool2D) Forward32(x *tensor.T32, train bool) *tensor.T32 {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s: input rank %d, want 4", l.name, x.Rank()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outH := (h-l.size)/l.stride + 1
	outW := (w-l.size)/l.stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("nn: %s: window %d too large for %d×%d input", l.name, l.size, h, w))
	}
	var out *tensor.T32
	if train {
		out = l.scratch32.Get("out", n, c, outH, outW)
		if len(l.inShape) != 4 {
			l.inShape = make([]int, 4)
		}
		l.inShape[0], l.inShape[1], l.inShape[2], l.inShape[3] = n, c, h, w
		if cap(l.argmax) < out.Len() {
			l.argmax = make([]int, out.Len())
		}
		l.argmax = l.argmax[:out.Len()]
	} else {
		out = l.scratch32.Get("eout", n, c, outH, outW)
		l.argmax = nil
	}
	if l.size == 2 && l.stride == 2 {
		pool2x2(x.Data, out.Data, l.argmax, n*c, h, w, outH, outW)
		return out
	}
	poolWindow(x.Data, out.Data, l.argmax, n*c, h, w, outH, outW, l.size, l.stride)
	return out
}

// Backward32 implements layer32.
func (l *MaxPool2D) Backward32(dout *tensor.T32) *tensor.T32 {
	if l.argmax == nil {
		panic(fmt.Sprintf("nn: %s: Backward32 without training Forward32", l.name))
	}
	dx := l.scratch32.Get("dx", l.inShape...)
	dx.Zero()
	for oi, v := range dout.Data {
		dx.Data[l.argmax[oi]] += v
	}
	return dx
}
