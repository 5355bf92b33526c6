package nn

import (
	"fmt"
	"math/rand"

	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// Conv2D is a 2-D convolution layer over NCHW batches, implemented with
// im2col + matrix multiplication. Each output channel is one "neuron" in
// the paper's pruning terminology.
type Conv2D struct {
	name    string
	dims    tensor.ConvDims
	filters int

	// index is the im2col/col2im table of dims when the output map is
	// narrow enough for it to beat the segment walks, nil otherwise
	// (tensor.ConvIndexFor). It is built once, never written again, and
	// shared with every clone.
	index *tensor.ConvIndex

	// W has shape (filters, C·K·K); B has shape (filters).
	W, B *Param

	// unitMask prunes output channels: unit u is row u of W and B[u].
	unitMask

	// inShape caches the input batch shape of the last training pass.
	inShape []int

	// f64 and f32 are the layer's arithmetic in each precision.
	f64 convPass[float64]
	f32 convPass[float32]
}

// convPass is Conv2D's forward and backward in E. None of its state is
// cloned or serialized — see DESIGN.md §8.
type convPass[E tensor.Elem] struct {
	l *Conv2D

	// cols views the im2col matrices of the last training forward pass, one
	// header per batch sample into a shared backing; nil after an
	// inference pass. colsHdr holds the persistent per-sample headers cols
	// views into, and colsFor records which backing they currently point
	// at, so a steady batch size re-points nothing and allocates nothing.
	cols    []*tensor.Of[E]
	colsHdr []*tensor.Of[E]
	colsFor *tensor.Of[E]

	// scratch holds the single-goroutine reusable buffers of the layer
	// (train-mode output, backward scratch, serial-path matmul results, the
	// float32 shadow weights); blockRes/blockCol/blockStage are the
	// per-block equivalents for the sample-parallel forward, indexed by
	// deterministic block id so concurrent blocks never share a buffer.
	scratch    tensor.ArenaOf[E]
	blockRes   []*tensor.Of[E]
	blockCol   []*tensor.Of[E]
	blockStage []*tensor.Of[E]
	doutMat    *tensor.Of[E]
}

var _ Prunable = (*Conv2D)(nil)

// NewConv2D builds a convolution layer with the given geometry and
// He-normal initialization.
func NewConv2D(name string, dims tensor.ConvDims, filters int, rng *rand.Rand) *Conv2D {
	if err := dims.Validate(); err != nil {
		panic(fmt.Sprintf("nn: %s: %v", name, err))
	}
	if filters <= 0 {
		panic(fmt.Sprintf("nn: %s: non-positive filter count %d", name, filters))
	}
	fanIn := dims.C * dims.K * dims.K
	l := &Conv2D{
		name:    name,
		dims:    dims,
		filters: filters,
		index:   tensor.ConvIndexFor(dims),
		W:       newParam(name+".W", filters, fanIn),
		B:       newParam(name+".B", filters),
	}
	l.B.NoDecay = true
	heInit(l.W.Value, fanIn, rng)
	return l.bind()
}

// bind points the layer's passes and its mask at it.
func (l *Conv2D) bind() *Conv2D {
	l.f64.l, l.f32.l = l, l
	fanIn := l.W.Value.Dim(1)
	l.bindUnits(l.name, l.filters, unitSpan{l.W, fanIn, 1, fanIn}, unitSpan{l.B, 1, 1, 1})
	return l
}

// Name implements Layer.
func (l *Conv2D) Name() string { return l.name }

// Dims returns the convolution geometry.
func (l *Conv2D) Dims() tensor.ConvDims { return l.dims }

// Filters returns the number of output channels.
func (l *Conv2D) Filters() int { return l.filters }

// SetL2 sets an extra L2 penalty on the layer's weights (not bias), used by
// the last-conv-layer regularization experiment (paper Fig. 10).
func (l *Conv2D) SetL2(lambda float64) { l.W.L2 = lambda }

// Forward implements Layer for x of shape (N, C, H, W).
func (l *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return l.f64.forward(x, train) }

// Backward implements Layer. All per-sample temporaries (the dout view, the
// dW and dcol scratch) and the returned dx live in reusable buffers, so a
// warm step allocates nothing.
func (l *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor { return l.f64.backward(dout) }

// passes implements Layer.
func (l *Conv2D) passes() (pass[float64], pass[float32]) { return &l.f64, &l.f32 }

// ensureCols points p.cols at n per-sample (fanIn×spatial) views of a
// shared backing tensor sized for the batch. The backing comes from the
// shape-keyed arena, so alternating full and tail batch sizes reuse
// persistent memory — one backing, the tail's header over a prefix of the
// full batch's — instead of reallocating; headers are re-pointed only when
// the backing header changes.
func (p *convPass[E]) ensureCols(n, fanIn, spatial int) {
	backing := p.scratch.Get("cols", n, fanIn, spatial)
	for len(p.colsHdr) < n {
		p.colsHdr = append(p.colsHdr, nil)
	}
	per := fanIn * spatial
	for s := 0; s < n; s++ {
		if p.colsHdr[s] == nil {
			p.colsHdr[s] = tensor.FromSlice(backing.Data[s*per:(s+1)*per], fanIn, spatial)
		} else if p.colsFor != backing {
			p.colsHdr[s].Data = backing.Data[s*per : (s+1)*per]
		}
	}
	p.colsFor = backing
	p.cols = p.colsHdr[:n]
}

func (p *convPass[E]) forward(x *tensor.Of[E], train bool) *tensor.Of[E] {
	l := p.l
	n := x.Dim(0)
	d := l.dims
	if x.Rank() != 4 || x.Dim(1) != d.C || x.Dim(2) != d.H || x.Dim(3) != d.W {
		panic(fmt.Sprintf("nn: %s: input shape %v, want [N %d %d %d]", l.name, x.Shape(), d.C, d.H, d.W))
	}
	outH, outW := d.OutH(), d.OutW()
	spatial := outH * outW
	fanIn := d.C * d.K * d.K
	w := weights(&p.scratch, "W", l.W, true)
	b := weights(&p.scratch, "B", l.B, true)
	out := p.scratch.Get(outSlot(train), n, l.filters, outH, outW)
	if train {
		p.ensureCols(n, fanIn, spatial)
		setShape(&l.inShape, x)
	} else {
		p.cols = nil
	}
	sampleIn := d.C * d.H * d.W
	// Every sample is an independent im2col + matmul writing a disjoint
	// slice of out (and its own cols view), so the batch splits across
	// workers with bit-identical results; each block owns a persistent
	// scratch pair keyed by its deterministic block index. Small batches
	// stay serial — the per-goroutine cost would exceed the convolution
	// itself.
	work := n * l.filters * spatial * fanIn
	if parallel.Workers() > 1 && n > 1 && work >= convParallelCutoff {
		nb := parallel.NumBlocks(n)
		for len(p.blockRes) < nb {
			p.blockRes = append(p.blockRes, nil)
			p.blockCol = append(p.blockCol, nil)
			p.blockStage = append(p.blockStage, nil)
		}
		parallel.ForBlocksIndexed(n, func(blk, lo, hi int) {
			res, col, stage := p.blockScratch(blk, fanIn, spatial)
			for s := lo; s < hi; s++ {
				p.forwardSample(x, out, p.sampleCol(col, s, train), res, stage, w, b, s, sampleIn, spatial)
			}
		})
		return out
	}
	res := p.scratch.Get("res", l.filters, spatial)
	var col, stage *tensor.Of[E]
	if !train {
		col = p.scratch.Get("col", fanIn, spatial)
	}
	if l.index != nil {
		stage = p.scratch.Get("stage", l.index.StageLen())
	}
	for s := 0; s < n; s++ {
		p.forwardSample(x, out, p.sampleCol(col, s, train), res, stage, w, b, s, sampleIn, spatial)
	}
	return out
}

// blockScratch returns the persistent matmul-result, im2col and table-stage
// scratch of block blk (the stage is nil for a layer without a table),
// growing lazily. Distinct blocks index distinct slice elements, so
// concurrent blocks never share a buffer; a worker count raised between
// forwards falls back to a private set rather than racing.
func (p *convPass[E]) blockScratch(blk, fanIn, spatial int) (res, col, stage *tensor.Of[E]) {
	if blk >= len(p.blockRes) {
		return tensor.NewOf[E](p.l.filters, spatial), tensor.NewOf[E](fanIn, spatial), p.newStage()
	}
	if p.blockRes[blk] == nil {
		p.blockRes[blk] = tensor.NewOf[E](p.l.filters, spatial)
		p.blockCol[blk] = tensor.NewOf[E](fanIn, spatial)
		p.blockStage[blk] = p.newStage()
	}
	return p.blockRes[blk], p.blockCol[blk], p.blockStage[blk]
}

// newStage allocates a stage scratch for the layer's table, nil without one.
func (p *convPass[E]) newStage() *tensor.Of[E] {
	if p.l.index == nil {
		return nil
	}
	return tensor.NewOf[E](p.l.index.StageLen())
}

// sampleCol selects the im2col destination for sample s: the persistent
// per-sample view of the cols backing when training (backward reads it),
// the caller's scratch when not.
func (p *convPass[E]) sampleCol(scratch *tensor.Of[E], s int, train bool) *tensor.Of[E] {
	if train {
		return p.cols[s]
	}
	return scratch
}

// convParallelCutoff is the minimum multiply-add count of a batched conv
// forward (N·F·OutH·OutW·C·K·K) at which the batch splits across workers.
const convParallelCutoff = 1 << 17

// forwardSample convolves sample s of batch x into out with weights w and
// bias b, unrolling the sample into col (the persistent cols view when
// training) — through the table and its stage scratch on narrow maps — and
// using res as matmul scratch. It touches only sample-s slices of out and
// p.cols and only reads w and b, so distinct samples may run concurrently.
func (p *convPass[E]) forwardSample(x, out, col, res, stage, w, b *tensor.Of[E], s, sampleIn, spatial int) {
	l := p.l
	img := x.Data[s*sampleIn : (s+1)*sampleIn]
	if l.index != nil {
		tensor.Im2ColIndexed(l.index, img, stage.Data, col.Data)
	} else {
		tensor.Im2Col(img, l.dims, col.Data)
	}
	tensor.MatMulInto(res, w, col)
	dst := out.Data[s*l.filters*spatial : (s+1)*l.filters*spatial]
	for f := 0; f < l.filters; f++ {
		tensor.AddScalar(dst[f*spatial:(f+1)*spatial], res.Data[f*spatial:(f+1)*spatial], b.Data[f])
	}
}

func (p *convPass[E]) backward(dout *tensor.Of[E]) *tensor.Of[E] {
	return p.backwardImpl(dout, true)
}

// backwardParams is backward without materializing dx: the parameter
// gradients are identical, but the Wᵀ·dout products and the Col2Im
// scatter — about a third of the layer's backward arithmetic — are
// skipped. Sequential.BackwardParams uses it for the network's first
// layer, whose input gradient nothing consumes.
func (p *convPass[E]) backwardParams(dout *tensor.Of[E]) { p.backwardImpl(dout, false) }

func (p *convPass[E]) backwardImpl(dout *tensor.Of[E], needDX bool) *tensor.Of[E] {
	l := p.l
	if p.cols == nil {
		panic(fmt.Sprintf("nn: %s: Backward without training Forward", l.name))
	}
	n := len(p.cols)
	d := l.dims
	spatial := d.OutH() * d.OutW()
	sampleIn := d.C * d.H * d.W
	fanIn := d.C * d.K * d.K
	var dx, dcol, w, stage *tensor.Of[E]
	if needDX {
		dx = p.scratch.Get("dx", l.inShape...)
		dx.Zero() // Col2Im accumulates
		dcol = p.scratch.Get("dcol", fanIn, spatial)
		w = weights(&p.scratch, "W", l.W, false)
		if l.index != nil {
			stage = p.scratch.Get("stage", l.index.StageLen())
		}
	}
	dW := p.scratch.Get("dW", l.filters, fanIn)
	if p.doutMat == nil {
		p.doutMat = tensor.FromSlice(dout.Data[:l.filters*spatial], l.filters, spatial)
	}
	doutMat := p.doutMat
	for s := 0; s < n; s++ {
		doutMat.Data = dout.Data[s*l.filters*spatial : (s+1)*l.filters*spatial]
		// dW += dout · colᵀ
		tensor.MatMulTransBInto(dW, doutMat, p.cols[s])
		tensor.AddWiden(l.W.Grad.Data, dW.Data)
		addRowSums(l.B.Grad.Data, doutMat.Data, spatial) // db += row sums of dout
		if needDX {
			// dx = col2im(Wᵀ · dout)
			tensor.MatMulTransAInto(dcol, w, doutMat)
			dxs := dx.Data[s*sampleIn : (s+1)*sampleIn]
			if l.index != nil {
				tensor.Col2ImIndexed(l.index, dcol.Data, stage.Data, dxs)
			} else {
				tensor.Col2Im(dcol.Data, d, dxs)
			}
		}
	}
	// Gradients of pruned channels are discarded so masked units stay dead.
	l.maskGrads()
	return dx
}

// addRowSums adds the sum of row f of m (len(grad) rows of spatial
// elements) to grad[f]. Each row is summed in E, first element to last, as
// one chain; four rows go side by side so that four chains are in flight.
func addRowSums[E tensor.Elem](grad []float64, m []E, spatial int) {
	f := 0
	for ; f+4 <= len(grad); f += 4 {
		r0, r1, r2, r3 := rows4(m, f*spatial, spatial)
		var s0, s1, s2, s3 E
		for i, v := range r0 {
			s0 += v
			s1 += r1[i]
			s2 += r2[i]
			s3 += r3[i]
		}
		grad[f] += float64(s0)
		grad[f+1] += float64(s1)
		grad[f+2] += float64(s2)
		grad[f+3] += float64(s3)
	}
	for ; f < len(grad); f++ {
		var s E
		for _, v := range m[f*spatial : (f+1)*spatial] {
			s += v
		}
		grad[f] += float64(s)
	}
}

// rows4 slices four consecutive n-element rows of x starting at base, the
// last three cut to the length of the first so that a loop ranging over the
// first indexes the others without bounds checks.
func rows4[E tensor.Elem](x []E, base, n int) (r0, r1, r2, r3 []E) {
	r0 = x[base : base+n]
	return r0, x[base+n:][:len(r0)], x[base+2*n:][:len(r0)], x[base+3*n:][:len(r0)]
}

// Params implements Layer.
func (l *Conv2D) Params() []*Param { return []*Param{l.W, l.B} }

// CloneLayer implements Layer. Scratch buffers are deliberately not copied:
// the clone warms up its own.
func (l *Conv2D) CloneLayer() Layer {
	c := &Conv2D{
		name:     l.name,
		dims:     l.dims,
		filters:  l.filters,
		index:    l.index,
		W:        l.W.clone(),
		B:        l.B.clone(),
		unitMask: unitMask{pruned: append([]bool(nil), l.pruned...)},
	}
	return c.bind()
}
