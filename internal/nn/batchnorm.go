package nn

import (
	"fmt"
	"math"

	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW batch to zero mean and
// unit variance, then applies a learnable per-channel affine transform.
// Running statistics collected during training are used at inference time.
//
// BatchNorm2D implements Prunable: pruning channel c zeroes its affine
// parameters (gamma and beta), guaranteeing the normalized output of a
// pruned upstream convolution channel stays exactly zero instead of being
// re-inflated by normalization. Sequential.PruneModelUnit relies on this.
type BatchNorm2D struct {
	name     string
	channels int
	momentum float64
	eps      float64

	// Gamma (scale) and Beta (shift), one per channel.
	Gamma, Beta *Param
	// RunMean and RunVar are the running statistics for inference, carried
	// as Stat parameters so federated averaging keeps the global model's
	// inference statistics consistent with its aggregated weights.
	RunMean, RunVar *Param

	// unitMask prunes channels: unit c is Gamma[c] and Beta[c].
	unitMask

	// frozen makes training-mode forward/backward use the running
	// statistics as constants: no batch statistics, no stat updates, and a
	// simplified backward. Trigger reverse-engineering (Neural Cleanse)
	// differentiates through a frozen model.
	frozen bool

	// Caches from the last training forward pass, shared by both
	// precisions: the per-channel statistics are float64 in either
	// (bnForward).
	invStd     []float64
	n          int // batch size of cached pass
	hw         int // spatial size of cached pass
	frozenPass bool

	// stat holds the per-channel float64 accumulators and derived scalars
	// of one pass (three per channel), allocated on first use. Not cloned.
	stat []float64

	// f64 and f32 are the layer's arithmetic in each precision.
	f64 bnPass[float64]
	f32 bnPass[float32]
}

// bnPass is BatchNorm2D's forward and backward in E.
type bnPass[E tensor.Elem] struct {
	l *BatchNorm2D

	// xhat caches the normalized input of the last training forward pass.
	xhat *tensor.Of[E]

	// scratch holds the reusable train-mode output, xhat cache and
	// backward dx buffers. Not cloned or serialized.
	scratch tensor.ArenaOf[E]
}

var _ Prunable = (*BatchNorm2D)(nil)

// NewBatchNorm2D builds a batch-normalization layer for the given channel
// count with momentum 0.9 for the running statistics.
func NewBatchNorm2D(name string, channels int) *BatchNorm2D {
	if channels <= 0 {
		panic(fmt.Sprintf("nn: %s: non-positive channel count %d", name, channels))
	}
	l := &BatchNorm2D{
		name:     name,
		channels: channels,
		momentum: 0.9,
		eps:      1e-5,
		Gamma:    newParam(name+".gamma", channels),
		Beta:     newParam(name+".beta", channels),
		RunMean:  newParam(name+".runmean", channels),
		RunVar:   newParam(name+".runvar", channels),
	}
	l.Gamma.Value.Fill(1)
	l.Gamma.NoDecay = true
	l.Beta.NoDecay = true
	l.RunMean.NoDecay, l.RunMean.Stat = true, true
	l.RunVar.NoDecay, l.RunVar.Stat = true, true
	l.RunVar.Value.Fill(1)
	return l.bind()
}

// bind points the layer's passes and its mask at it.
func (l *BatchNorm2D) bind() *BatchNorm2D {
	l.f64.l, l.f32.l = l, l
	l.bindUnits(l.name, l.channels, unitSpan{l.Gamma, 1, 1, 1}, unitSpan{l.Beta, 1, 1, 1})
	return l
}

// Name implements Layer.
func (l *BatchNorm2D) Name() string { return l.name }

// Freeze pins the layer to its running statistics: training-mode passes
// stop computing batch statistics and stop updating the running ones, and
// Backward treats the statistics as constants.
func (l *BatchNorm2D) Freeze() { l.frozen = true }

// Forward implements Layer for x of shape (N, C, H, W).
func (l *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.f64.forward(x, train)
}

// Backward implements Layer using the standard batch-norm gradient.
func (l *BatchNorm2D) Backward(dout *tensor.Tensor) *tensor.Tensor { return l.f64.backward(dout) }

// passes implements Layer.
func (l *BatchNorm2D) passes() (pass[float64], pass[float32]) { return &l.f64, &l.f32 }

func (p *bnPass[E]) forward(x *tensor.Of[E], train bool) *tensor.Of[E] {
	l := p.l
	if x.Rank() != 4 || x.Dim(1) != l.channels {
		panic(fmt.Sprintf("nn: %s: input shape %v, want [N %d H W]", l.name, x.Shape(), l.channels))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	hw := h * w
	out := p.scratch.Get(outSlot(train), n, l.channels, h, w)
	var xhat []E
	if train {
		p.xhat = p.scratch.GetLike("xhat", x)
		xhat = p.xhat.Data
		if len(l.invStd) != l.channels {
			l.invStd = make([]float64, l.channels)
		}
		l.n, l.hw = n, hw
		l.frozenPass = l.frozen
	}
	bnForward(l, out.Data, xhat, x.Data, n, hw, train)
	return out
}

func (p *bnPass[E]) backward(dout *tensor.Of[E]) *tensor.Of[E] {
	if p.xhat == nil {
		panic(fmt.Sprintf("nn: %s: Backward without training Forward", p.l.name))
	}
	dx := p.scratch.GetLike("dx", dout)
	bnBackward(p.l, dx.Data, dout.Data, p.xhat.Data)
	return dx
}

// perChannel returns the layer's three per-channel float64 scratch rows.
func (l *BatchNorm2D) perChannel() (a, b, c []float64) {
	ch := l.channels
	if len(l.stat) != 3*ch {
		l.stat = make([]float64, 3*ch)
	}
	return l.stat[:ch], l.stat[ch : 2*ch], l.stat[2*ch:]
}

// bnForward is the forward arithmetic over flat N×C×hw operands; xhat is
// nil on inference passes. The batch statistics are reduced in float64
// whatever E is — summing thousands of float32 values in float32 loses
// digits the tolerance harness would have to absorb — and the float64
// running statistics are updated in place; every per-channel scalar
// enters the element-wise pass rounded to E once.
//
// The loops run sample-outer, channel-inner: memory is walked front to
// back, and — the point — the reductions keep one accumulator per channel
// instead of finishing one channel before starting the next. Each
// channel's sum still receives its elements in ascending (sample,
// position) order, exactly the order of the channel-outer loops this
// replaces, so every statistic has the same bits; what changes is that the
// additions of different channels no longer wait for one another
// (DESIGN.md §18).
func bnForward[E tensor.Elem](l *BatchNorm2D, out, xhat, x []E, n, hw int, train bool) {
	ch := l.channels
	mean, variance, inv := l.perChannel()
	if train && !l.frozen {
		cnt := float64(n * hw)
		clear(mean)
		bnSums(mean, x, n, ch, hw)
		for c := range mean {
			mean[c] /= cnt
		}
		clear(variance)
		bnSquaredDevs(variance, x, mean, n, ch, hw)
		for c := range variance {
			variance[c] /= cnt
			l.RunMean.Value.Data[c] = float64(l.momentum*l.RunMean.Value.Data[c]) + float64((1-l.momentum)*mean[c])
			l.RunVar.Value.Data[c] = float64(l.momentum*l.RunVar.Value.Data[c]) + float64((1-l.momentum)*variance[c])
		}
	} else {
		copy(mean, l.RunMean.Value.Data)
		for c, v := range l.RunVar.Value.Data {
			// Aggregated or adversarially scaled statistics can go
			// negative; clamp rather than produce NaNs.
			if v < 0 {
				v = 0
			}
			variance[c] = v
		}
	}
	for c, v := range variance {
		inv[c] = 1 / math.Sqrt(v+l.eps)
	}
	if train {
		copy(l.invStd, inv)
	}
	gamma, beta := l.Gamma.Value.Data, l.Beta.Value.Data
	for s := 0; s < n; s++ {
		for c := 0; c < ch; c++ {
			lo, hi := (s*ch+c)*hw, (s*ch+c+1)*hw
			var xh []E
			if xhat != nil {
				xh = xhat[lo:hi]
			}
			tensor.NormAffine(out[lo:hi], xh, x[lo:hi], E(mean[c]), E(inv[c]), E(gamma[c]), E(beta[c]))
		}
	}
}

// bnSums adds the elements of each channel of the N×C×hw batch x into
// sum[c], four channels at a time so that four addition chains are in
// flight; within a channel the order is ascending (sample, position).
func bnSums[E tensor.Elem](sum []float64, x []E, n, ch, hw int) {
	for s := 0; s < n; s++ {
		c := 0
		for ; c+4 <= ch; c += 4 {
			r0, r1, r2, r3 := rows4(x, (s*ch+c)*hw, hw)
			a0, a1, a2, a3 := sum[c], sum[c+1], sum[c+2], sum[c+3]
			for i, v := range r0 {
				a0 += float64(v)
				a1 += float64(r1[i])
				a2 += float64(r2[i])
				a3 += float64(r3[i])
			}
			sum[c], sum[c+1], sum[c+2], sum[c+3] = a0, a1, a2, a3
		}
		for ; c < ch; c++ {
			a := sum[c]
			for _, v := range x[(s*ch+c)*hw : (s*ch+c+1)*hw] {
				a += float64(v)
			}
			sum[c] = a
		}
	}
}

// bnSquaredDevs adds (x − mean[c])² over each channel into ss[c], in the
// order and the grouping of bnSums.
func bnSquaredDevs[E tensor.Elem](ss []float64, x []E, mean []float64, n, ch, hw int) {
	for s := 0; s < n; s++ {
		c := 0
		for ; c+4 <= ch; c += 4 {
			r0, r1, r2, r3 := rows4(x, (s*ch+c)*hw, hw)
			m0, m1, m2, m3 := mean[c], mean[c+1], mean[c+2], mean[c+3]
			a0, a1, a2, a3 := ss[c], ss[c+1], ss[c+2], ss[c+3]
			for i, v := range r0 {
				d0 := float64(v) - m0
				d1 := float64(r1[i]) - m1
				d2 := float64(r2[i]) - m2
				d3 := float64(r3[i]) - m3
				a0 += float64(d0 * d0)
				a1 += float64(d1 * d1)
				a2 += float64(d2 * d2)
				a3 += float64(d3 * d3)
			}
			ss[c], ss[c+1], ss[c+2], ss[c+3] = a0, a1, a2, a3
		}
		for ; c < ch; c++ {
			a, m := ss[c], mean[c]
			for _, v := range x[(s*ch+c)*hw : (s*ch+c+1)*hw] {
				d := float64(v) - m
				a += float64(d * d)
			}
			ss[c] = a
		}
	}
}

// bnGradSums adds dout·xhat over each channel into dg[c] and dout into
// db[c], in the order and the grouping of bnSums.
func bnGradSums[E tensor.Elem](dg, db []float64, dout, xhat []E, n, ch, hw int) {
	for s := 0; s < n; s++ {
		c := 0
		for ; c+4 <= ch; c += 4 {
			d0, d1, d2, d3 := rows4(dout, (s*ch+c)*hw, hw)
			x0, x1, x2, x3 := rows4(xhat, (s*ch+c)*hw, hw)
			g0, g1, g2, g3 := dg[c], dg[c+1], dg[c+2], dg[c+3]
			b0, b1, b2, b3 := db[c], db[c+1], db[c+2], db[c+3]
			for i := range d0 {
				v0, v1, v2, v3 := float64(d0[i]), float64(d1[i]), float64(d2[i]), float64(d3[i])
				g0 += float64(v0 * float64(x0[i]))
				g1 += float64(v1 * float64(x1[i]))
				g2 += float64(v2 * float64(x2[i]))
				g3 += float64(v3 * float64(x3[i]))
				b0 += v0
				b1 += v1
				b2 += v2
				b3 += v3
			}
			dg[c], dg[c+1], dg[c+2], dg[c+3] = g0, g1, g2, g3
			db[c], db[c+1], db[c+2], db[c+3] = b0, b1, b2, b3
		}
		for ; c < ch; c++ {
			lo, hi := (s*ch+c)*hw, (s*ch+c+1)*hw
			g, b := dg[c], db[c]
			xr := xhat[lo:hi]
			for i, v := range dout[lo:hi] {
				d := float64(v)
				g += float64(d * float64(xr[i]))
				b += d
			}
			dg[c], db[c] = g, b
		}
	}
}

// bnBackward is the backward arithmetic; the dγ/dβ reductions are
// re-looped like the forward statistics (bnForward) and accumulate in
// float64.
func bnBackward[E tensor.Elem](l *BatchNorm2D, dx, dout, xhat []E) {
	n, hw, ch := l.n, l.hw, l.channels
	gamma := l.Gamma.Value.Data
	if l.frozenPass {
		// Statistics are constants: dx = dout · γ · invStd.
		for s := 0; s < n; s++ {
			for c := 0; c < ch; c++ {
				lo, hi := (s*ch+c)*hw, (s*ch+c+1)*hw
				tensor.Scale(dx[lo:hi], dout[lo:hi], E(gamma[c]*l.invStd[c]))
			}
		}
		return
	}
	cnt := float64(n * hw)
	dg, db, scale := l.perChannel()
	clear(dg)
	clear(db)
	bnGradSums(dg, db, dout, xhat, n, ch, hw)
	for c := 0; c < ch; c++ {
		l.Gamma.Grad.Data[c] += dg[c]
		l.Beta.Grad.Data[c] += db[c]
		// dxhat = dout * gamma; reuse the dg/db sums scaled by gamma.
		dg[c] *= gamma[c] // Σ dxhat·xhat
		db[c] *= gamma[c] // Σ dxhat
		scale[c] = l.invStd[c] / cnt
	}
	for s := 0; s < n; s++ {
		for c := 0; c < ch; c++ {
			lo, hi := (s*ch+c)*hw, (s*ch+c+1)*hw
			tensor.NormBackward(dx[lo:hi], dout[lo:hi], xhat[lo:hi], E(gamma[c]), E(scale[c]), E(cnt), E(db[c]), E(dg[c]))
		}
	}
	l.maskGrads()
}

// Params implements Layer. Running statistics are included as Stat
// parameters (skipped by the optimizer, transported by aggregation).
func (l *BatchNorm2D) Params() []*Param {
	return []*Param{l.Gamma, l.Beta, l.RunMean, l.RunVar}
}

// CloneLayer implements Layer. Running statistics are copied so a cloned
// model evaluates identically.
func (l *BatchNorm2D) CloneLayer() Layer {
	c := &BatchNorm2D{
		name:     l.name,
		channels: l.channels,
		momentum: l.momentum,
		eps:      l.eps,
		Gamma:    l.Gamma.clone(),
		Beta:     l.Beta.clone(),
		RunMean:  l.RunMean.clone(),
		RunVar:   l.RunVar.clone(),
		unitMask: unitMask{pruned: append([]bool(nil), l.pruned...)},
		frozen:   l.frozen,
	}
	return c.bind()
}
