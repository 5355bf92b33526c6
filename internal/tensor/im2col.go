package tensor

import (
	"fmt"
	"math"
)

// ConvDims describes a 2-D convolution geometry over a C×H×W input.
type ConvDims struct {
	C, H, W int // input channels, height, width
	K       int // square kernel size
	Stride  int
	Pad     int
}

// OutH returns the output height of the convolution.
func (d ConvDims) OutH() int { return (d.H+2*d.Pad-d.K)/d.Stride + 1 }

// OutW returns the output width of the convolution.
func (d ConvDims) OutW() int { return (d.W+2*d.Pad-d.K)/d.Stride + 1 }

// Validate reports an error if the geometry is degenerate.
func (d ConvDims) Validate() error {
	switch {
	case d.C <= 0 || d.H <= 0 || d.W <= 0:
		return fmt.Errorf("tensor: conv dims %+v: non-positive input", d)
	case d.K <= 0 || d.Stride <= 0 || d.Pad < 0:
		return fmt.Errorf("tensor: conv dims %+v: bad kernel/stride/pad", d)
	case d.OutH() <= 0 || d.OutW() <= 0:
		return fmt.Errorf("tensor: conv dims %+v: empty output", d)
	}
	return nil
}

// Im2Col unrolls a single C×H×W image (flat slice img) into dst, a
// (C·K·K)×(OutH·OutW) column matrix in row-major order. Padding positions
// contribute zeros. dst must have length C·K·K·OutH·OutW.
//
// The unrolled layout pairs with a weight matrix of shape (F, C·K·K): the
// convolution then becomes a single MatMul producing (F, OutH·OutW).
func Im2Col[E Elem](img []E, d ConvDims, dst []E) {
	checkIm2Col(len(img), len(dst), d)
	im2colKernel(img, d, dst)
}

func checkIm2Col(imgLen, dstLen int, d ConvDims) {
	cols := d.OutH() * d.OutW()
	if imgLen != d.C*d.H*d.W {
		panic(fmt.Sprintf("tensor: Im2Col image length %d, want %d", imgLen, d.C*d.H*d.W))
	}
	if dstLen != d.C*d.K*d.K*cols {
		panic(fmt.Sprintf("tensor: Im2Col dst length %d, want %d", dstLen, d.C*d.K*d.K*cols))
	}
}

// Col2Im scatters a (C·K·K)×(OutH·OutW) column-gradient matrix back into a
// C×H×W image gradient, accumulating overlapping contributions. dst must be
// zeroed by the caller if fresh accumulation is desired.
func Col2Im[E Elem](col []E, d ConvDims, dst []E) {
	checkCol2Im(len(col), len(dst), d)
	col2imKernel(col, d, dst)
}

func checkCol2Im(colLen, dstLen int, d ConvDims) {
	cols := d.OutH() * d.OutW()
	if dstLen != d.C*d.H*d.W {
		panic(fmt.Sprintf("tensor: Col2Im dst length %d, want %d", dstLen, d.C*d.H*d.W))
	}
	if colLen != d.C*d.K*d.K*cols {
		panic(fmt.Sprintf("tensor: Col2Im col length %d, want %d", colLen, d.C*d.K*d.K*cols))
	}
}

// ConvIndex is Im2Col and Col2Im for one geometry as a table: cell i of
// the (C·K·K)×(OutH·OutW) column matrix, in row-major order, corresponds
// to image cell idx[i], and the cells that fall in the padding to one of
// a few sentinel indices just past the image, C·H·W and up. Im2ColIndexed
// is then a gather in the column matrix's cell order and Col2ImIndexed a
// scatter-add in the same order — the (c, ky, kx, oy, ox) order of the
// Col2Im walk — so both give the bits of the walks for any stride and
// padding.
//
// The table costs one load per cell where the stride-1 walk costs one copy
// call per OutW-wide row segment; which is cheaper depends on OutW alone
// (ConvIndexFor). A ConvIndex is immutable once built: layers built from
// the same geometry, all their clones and any number of goroutines share
// one.
type ConvIndex struct {
	dims ConvDims
	idx  []int32
}

// narrowConvWidth is the widest output map the table is used for. Per
// cell the table costs the same at every width and the segment walk costs
// a call per segment: on the shipped stride-1 3×3 geometries the gather
// beats the walk 2.6×, 4× and 9× at widths 8, 4 and 2 (the scatter 1.6×,
// 2.7× and 4×) and is within a tenth of it at 16, where the table would
// also be four times the size (DESIGN.md §18; BenchmarkIm2ColNarrow).
const narrowConvWidth = 8

// convSentinels is the number of sentinel cells the padding cells are
// dealt round-robin. One would do for the gather; the scatter adds into
// them, and on a 2×2 map more than half of all cells are padding, which
// with a single sentinel is one long chain of dependent read-modify-writes
// of the same address.
const convSentinels = 8

// ConvIndexFor returns the table for d, or nil when d's output map is wide
// enough that Im2Col and Col2Im are at least as fast.
func ConvIndexFor(d ConvDims) *ConvIndex {
	if d.OutW() > narrowConvWidth {
		return nil
	}
	return newConvIndex(d)
}

func newConvIndex(d ConvDims) *ConvIndex {
	if err := d.Validate(); err != nil {
		panic(err.Error())
	}
	imgLen := d.C * d.H * d.W
	if imgLen+convSentinels > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: conv dims %+v: image too large to index", d))
	}
	outH, outW := d.OutH(), d.OutW()
	idx := make([]int32, 0, d.C*d.K*d.K*outH*outW)
	pads := 0
	for c := 0; c < d.C; c++ {
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				for oy := 0; oy < outH; oy++ {
					iy := oy*d.Stride + ky - d.Pad
					for ox := 0; ox < outW; ox++ {
						ix := ox*d.Stride + kx - d.Pad
						cell := (c*d.H+iy)*d.W + ix
						if iy < 0 || iy >= d.H || ix < 0 || ix >= d.W {
							cell = imgLen + pads%convSentinels
							pads++
						}
						idx = append(idx, int32(cell))
					}
				}
			}
		}
	}
	return &ConvIndex{dims: d, idx: idx}
}

// StageLen is the length of the scratch slice Im2ColIndexed and
// Col2ImIndexed need: the image plus the sentinel cells.
func (t *ConvIndex) StageLen() int { return t.dims.C*t.dims.H*t.dims.W + convSentinels }

// Im2ColIndexed is Im2Col through the table. stage is caller-owned scratch
// of length t.StageLen(): the image is copied there so that the sentinels
// can hold the zero every padding cell reads.
func Im2ColIndexed[E Elem](t *ConvIndex, img, stage, dst []E) {
	checkIm2Col(len(img), len(dst), t.dims)
	checkStage(len(stage), t)
	clear(stage[copy(stage, img):])
	idx := t.idx
	dst = dst[:len(idx)]
	for i, j := range idx {
		dst[i] = stage[j]
	}
}

// Col2ImIndexed is Col2Im through the table, accumulating into dst like
// Col2Im. dst's cells are carried through stage, whose sentinel cells take
// the adds of the padding cells.
func Col2ImIndexed[E Elem](t *ConvIndex, col, stage, dst []E) {
	checkCol2Im(len(col), len(dst), t.dims)
	checkStage(len(stage), t)
	clear(stage[copy(stage, dst):])
	idx := t.idx
	col = col[:len(idx)]
	for i, j := range idx {
		stage[j] += col[i]
	}
	copy(dst, stage)
}

func checkStage(stageLen int, t *ConvIndex) {
	if stageLen != t.StageLen() {
		panic(fmt.Sprintf("tensor: ConvIndex stage length %d, want %d", stageLen, t.StageLen()))
	}
}
