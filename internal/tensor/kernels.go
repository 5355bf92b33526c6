package tensor

// This file holds the numeric inner loops of the package, written once as
// generic kernels over the two supported element types. Three kernel
// families coexist:
//
//   - Reference kernels (suffix Ref): the pre-tile loops exactly as they
//     shipped in PR 1/2, including the `av == 0` sparsity skip. They are
//     the semantic ground truth the identity tests and the fuzz harness
//     compare against, and are not called from the production paths.
//   - Tiled kernels (suffix TiledGo): cache-blocked panels (KC×NC) around
//     a 4-row-unrolled scalar micro-kernel, in pure Go. The sparsity
//     branch is deliberately absent — a data-dependent branch in the
//     innermost loop defeats instruction-level parallelism and any chance
//     of the compiler keeping the four accumulator streams in registers
//     (satellite of ISSUE 7). Skipping a zero product only ever adds
//     ±0.0 to the accumulator, which cannot change a finite sum, so the
//     tiled kernels remain bit-identical to the reference for the finite
//     inputs the training stack produces (including exactly-zero pruned
//     channels and ReLU zeros). They are the production kernels off
//     amd64 and on CPUs without AVX2, and the reference the assembly is
//     compared against bit for bit.
//   - The production entry points (suffix Tiled, no Go): on amd64 with
//     AVX2 they run the assembly micro-kernels of gemm_amd64.s under the
//     same KC×NC panels (kernels_amd64.go); everywhere else they are the
//     TiledGo loops (kernels_noasm.go). CPUID decides, nothing else.
//
// Bit-identity discipline: for every output cell, contributions are
// accumulated in ascending-p order with a separately rounded multiply and
// add — every product is written E(a·b), a rounding point no compiler may
// fuse across — the KC panel loop is outermost and panels resume from the stored
// partial sum, so splitting k into panels replays the exact same sequence
// of rounded additions as one straight pass. Row blocking
// (parallel.ForBlocks) and column blocking only change *which* cells are
// computed when, never the order within a cell, which is why serial,
// parallel and reference results match bit for bit per precision. The
// assembly keeps the rule by vectorizing across cells, never across p,
// and never fusing (DESIGN.md §3).

// Elem is the set of element types the kernels are instantiated for.
// float64 is the canonical precision (FL aggregation, checkpoints, the
// defense's accounting); float32 is the opt-in speed backend (DESIGN.md
// §4).
type Elem interface {
	~float32 | ~float64
}

// Cache-tile extents. The Go inner loop touches one b-panel row plus four
// destination row segments, each nc elements wide: 5·nc elements must sit
// in L1 (~10 KiB at nc64=256), while a full KC×NC b-panel (~256 KiB at
// kc64×nc64) stays L2-resident across the row sweep. The float32 extents
// are doubled so both precisions tile the same byte footprint. The
// extents do nothing for instruction selection: the Go compiler emits
// scalar MULSx/ADDSx for these loops at every GOAMD64 level (no packed
// and no fused instruction, v1 or v3), so float32 is no faster per
// element than float64 here. What vectorizes is the assembly, which sits
// under the same panels and is the same code at every GOAMD64 level.
const (
	kc64 = 128
	nc64 = 256
	kc32 = 256
	nc32 = 512
)

// tileSizes returns the (kc, nc) extents for the element type.
func tileSizes[E Elem]() (kc, nc int) {
	var e E
	if _, ok := any(e).(float32); ok {
		return kc32, nc32
	}
	return kc64, nc64
}

// matmulTiledGo accumulates rows [lo,hi) of a (m×k) times b (k×n) into dst
// (m×n). dst rows must be zeroed by the caller (the Into wrappers zero
// the whole destination).
//
// The micro-kernel deliberately keeps j (the contiguous dimension of b
// and dst) innermost: every j iteration is an independent multiply-add
// with no loop-carried dependency, so the CPU overlaps them freely, and
// all five streams are sequential. A register-blocked variant (dst
// partials held across the KC panel, p innermost) was measured slower in
// scalar Go — it trades L1-resident dst traffic for strided b walks and
// eight serialized accumulator chains; with vector registers the trade
// goes the other way, and the assembly is register-blocked.
func matmulTiledGo[E Elem](dst, a, b []E, lo, hi, k, n int) {
	kc, nc := tileSizes[E]()
	for pc := 0; pc < k; pc += kc {
		pe := min(pc+kc, k)
		for jc := 0; jc < n; jc += nc {
			je := min(jc+nc, n)
			i := lo
			for ; i+4 <= hi; i += 4 {
				a0 := a[(i+0)*k : (i+1)*k]
				a1 := a[(i+1)*k : (i+2)*k]
				a2 := a[(i+2)*k : (i+3)*k]
				a3 := a[(i+3)*k : (i+4)*k]
				d0 := dst[(i+0)*n+jc : (i+0)*n+je]
				d1 := dst[(i+1)*n+jc : (i+1)*n+je]
				d2 := dst[(i+2)*n+jc : (i+2)*n+je]
				d3 := dst[(i+3)*n+jc : (i+3)*n+je]
				for p := pc; p < pe; p++ {
					bp := b[p*n+jc : p*n+je]
					v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
					d0 := d0[:len(bp)]
					d1 := d1[:len(bp)]
					d2 := d2[:len(bp)]
					d3 := d3[:len(bp)]
					for j, bv := range bp {
						d0[j] += E(v0 * bv)
						d1[j] += E(v1 * bv)
						d2[j] += E(v2 * bv)
						d3[j] += E(v3 * bv)
					}
				}
			}
			for ; i < hi; i++ {
				arow := a[i*k : (i+1)*k]
				drow := dst[i*n+jc : i*n+je]
				for p := pc; p < pe; p++ {
					bp := b[p*n+jc : p*n+je]
					av := arow[p]
					drow := drow[:len(bp)]
					for j, bv := range bp {
						drow[j] += E(av * bv)
					}
				}
			}
		}
	}
}

// matmulTransBTiledGo computes rows [lo,hi) of a (m×k) times bᵀ for b
// (n×k) into dst (m×n), overwriting every cell it covers. Four dot
// products run simultaneously so one pass over the a-row feeds four
// independent accumulator chains.
func matmulTransBTiledGo[E Elem](dst, a, b []E, lo, hi, k, n int) {
	kc, _ := tileSizes[E]()
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		for pc := 0; pc < k; pc += kc {
			pe := min(pc+kc, k)
			ap := arow[pc:pe]
			first := pc == 0
			j := 0
			for ; j+4 <= n; j += 4 {
				b0 := b[(j+0)*k+pc : (j+0)*k+pe]
				b1 := b[(j+1)*k+pc : (j+1)*k+pe]
				b2 := b[(j+2)*k+pc : (j+2)*k+pe]
				b3 := b[(j+3)*k+pc : (j+3)*k+pe]
				var s0, s1, s2, s3 E
				if !first {
					s0, s1, s2, s3 = orow[j], orow[j+1], orow[j+2], orow[j+3]
				}
				b0 = b0[:len(ap)]
				b1 = b1[:len(ap)]
				b2 = b2[:len(ap)]
				b3 = b3[:len(ap)]
				for p, av := range ap {
					s0 += E(av * b0[p])
					s1 += E(av * b1[p])
					s2 += E(av * b2[p])
					s3 += E(av * b3[p])
				}
				orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
			}
			for ; j < n; j++ {
				brow := b[j*k+pc : j*k+pe]
				var s E
				if !first {
					s = orow[j]
				}
				brow = brow[:len(ap)]
				for p, av := range ap {
					s += E(av * brow[p])
				}
				orow[j] = s
			}
		}
	}
}

// matmulTransATiledGo accumulates output rows [lo,hi) of aᵀ·b for a (k×m)
// and b (k×n) into dst (m×n), which the caller has zeroed. Output row i
// is column i of a, so the 4-row unroll reads four adjacent a elements
// per p instead of four strided rows. As in matmulTiledGo, j stays
// innermost so the four update streams are contiguous and independent.
func matmulTransATiledGo[E Elem](dst, a, b []E, lo, hi, k, m, n int) {
	kc, nc := tileSizes[E]()
	for pc := 0; pc < k; pc += kc {
		pe := min(pc+kc, k)
		for jc := 0; jc < n; jc += nc {
			je := min(jc+nc, n)
			i := lo
			for ; i+4 <= hi; i += 4 {
				d0 := dst[(i+0)*n+jc : (i+0)*n+je]
				d1 := dst[(i+1)*n+jc : (i+1)*n+je]
				d2 := dst[(i+2)*n+jc : (i+2)*n+je]
				d3 := dst[(i+3)*n+jc : (i+3)*n+je]
				for p := pc; p < pe; p++ {
					ap := a[p*m+i : p*m+i+4]
					v0, v1, v2, v3 := ap[0], ap[1], ap[2], ap[3]
					bp := b[p*n+jc : p*n+je]
					d0 := d0[:len(bp)]
					d1 := d1[:len(bp)]
					d2 := d2[:len(bp)]
					d3 := d3[:len(bp)]
					for j, bv := range bp {
						d0[j] += E(v0 * bv)
						d1[j] += E(v1 * bv)
						d2[j] += E(v2 * bv)
						d3[j] += E(v3 * bv)
					}
				}
			}
			for ; i < hi; i++ {
				drow := dst[i*n+jc : i*n+je]
				for p := pc; p < pe; p++ {
					av := a[p*m+i]
					bp := b[p*n+jc : p*n+je]
					drow := drow[:len(bp)]
					for j, bv := range bp {
						drow[j] += E(av * bv)
					}
				}
			}
		}
	}
}

// matmulRowsRef is the pre-tile i-k-j reference kernel for rows [lo,hi)
// of a·b, sparsity skip included. Identity tests and the fuzz harness
// compare the tiled kernels against it; production paths never call it.
func matmulRowsRef[E Elem](dst, a, b []E, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				drow[j] += E(av * bv)
			}
		}
	}
}

// matmulTransBRowsRef is the pre-tile dot-product reference kernel for
// rows [lo,hi) of a·bᵀ.
func matmulTransBRowsRef[E Elem](dst, a, b []E, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s E
			for p, av := range arow {
				s += E(av * brow[p])
			}
			orow[j] = s
		}
	}
}

// matmulTransARowsRef is the pre-tile p-outer reference kernel for output
// rows [lo,hi) of aᵀ·b, sparsity skip included.
func matmulTransARowsRef[E Elem](dst, a, b []E, lo, hi, k, m, n int) {
	for p := 0; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := dst[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += E(av * bv)
			}
		}
	}
}

// im2colKernel unrolls a single C×H×W image into a (C·K·K)×(OutH·OutW)
// column matrix; see Im2Col for the layout contract.
func im2colKernel[E Elem](img []E, d ConvDims, dst []E) {
	if d.Stride == 1 {
		im2colStride1(img, d, dst)
		return
	}
	outH, outW := d.OutH(), d.OutW()
	cols := outH * outW
	row := 0
	for c := 0; c < d.C; c++ {
		chanBase := c * d.H * d.W
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				drow := dst[row*cols : (row+1)*cols]
				i := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*d.Stride + ky - d.Pad
					if iy < 0 || iy >= d.H {
						for ox := 0; ox < outW; ox++ {
							drow[i] = 0
							i++
						}
						continue
					}
					rowBase := chanBase + iy*d.W
					for ox := 0; ox < outW; ox++ {
						ix := ox*d.Stride + kx - d.Pad
						if ix < 0 || ix >= d.W {
							drow[i] = 0
						} else {
							drow[i] = img[rowBase+ix]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

// im2colStride1 is im2colKernel for stride-1 convolutions (every conv in
// the shipped models). With ix = ox + (kx-pad), the in-bounds ox range per
// kernel column is a fixed interval, so the inner loop splits into
// zero-fill edges and one straight copy — no per-element bounds branch.
// Output is bit-identical to the generic walk.
func im2colStride1[E Elem](img []E, d ConvDims, dst []E) {
	outH, outW := d.OutH(), d.OutW()
	cols := outH * outW
	row := 0
	for c := 0; c < d.C; c++ {
		chanBase := c * d.H * d.W
		for ky := 0; ky < d.K; ky++ {
			dy := ky - d.Pad
			for kx := 0; kx < d.K; kx++ {
				dxo := kx - d.Pad
				drow := dst[row*cols : (row+1)*cols]
				lo := 0
				if dxo < 0 {
					lo = -dxo
				}
				hi := outW
				if dxo+outW > d.W {
					hi = d.W - dxo
				}
				if hi <= lo {
					// The whole kernel column reads padding.
					clear(drow)
					row++
					continue
				}
				for oy := 0; oy < outH; oy++ {
					iy := oy + dy
					seg := drow[oy*outW : (oy+1)*outW]
					if iy < 0 || iy >= d.H {
						for i := range seg {
							seg[i] = 0
						}
						continue
					}
					rowBase := chanBase + iy*d.W + dxo
					for i := 0; i < lo; i++ {
						seg[i] = 0
					}
					copy(seg[lo:hi], img[rowBase+lo:rowBase+hi])
					for i := hi; i < outW; i++ {
						seg[i] = 0
					}
				}
				row++
			}
		}
	}
}

// col2imKernel scatters a column-gradient matrix back into an image
// gradient, accumulating overlaps; see Col2Im for the contract.
func col2imKernel[E Elem](col []E, d ConvDims, dst []E) {
	if d.Stride == 1 {
		col2imStride1(col, d, dst)
		return
	}
	outH, outW := d.OutH(), d.OutW()
	cols := outH * outW
	row := 0
	for c := 0; c < d.C; c++ {
		chanBase := c * d.H * d.W
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				crow := col[row*cols : (row+1)*cols]
				i := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*d.Stride + ky - d.Pad
					if iy < 0 || iy >= d.H {
						i += outW
						continue
					}
					rowBase := chanBase + iy*d.W
					for ox := 0; ox < outW; ox++ {
						ix := ox*d.Stride + kx - d.Pad
						if ix >= 0 && ix < d.W {
							dst[rowBase+ix] += crow[i]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

// col2imStride1 is col2imKernel for stride-1 convolutions, with the same
// interval split as im2colStride1: the accumulation loop runs over the
// fixed in-bounds ox range with no per-element branch. The adds hit each
// destination cell in the same (c, ky, kx, oy, ox) order as the generic
// walk, so the scatter is bit-identical.
func col2imStride1[E Elem](col []E, d ConvDims, dst []E) {
	outH, outW := d.OutH(), d.OutW()
	cols := outH * outW
	row := 0
	for c := 0; c < d.C; c++ {
		chanBase := c * d.H * d.W
		for ky := 0; ky < d.K; ky++ {
			dy := ky - d.Pad
			for kx := 0; kx < d.K; kx++ {
				dxo := kx - d.Pad
				crow := col[row*cols : (row+1)*cols]
				lo := 0
				if dxo < 0 {
					lo = -dxo
				}
				hi := outW
				if dxo+outW > d.W {
					hi = d.W - dxo
				}
				if hi <= lo {
					// The whole kernel column reads padding.
					row++
					continue
				}
				for oy := 0; oy < outH; oy++ {
					iy := oy + dy
					if iy < 0 || iy >= d.H {
						continue
					}
					seg := crow[oy*outW+lo : oy*outW+hi]
					drow := dst[chanBase+iy*d.W+dxo+lo : chanBase+iy*d.W+dxo+hi]
					for i, v := range seg {
						drow[i] += v
					}
				}
				row++
			}
		}
	}
}
