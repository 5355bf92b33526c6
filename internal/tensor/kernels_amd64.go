package tensor

import (
	"unsafe"

	"github.com/fedcleanse/fedcleanse/internal/obs"
)

// The production entry points of the three tiled kernels on amd64: AVX2
// assembly (gemm_amd64.s) when the CPU and the OS support it, the pure-Go
// loops of kernels.go otherwise. The choice is made once, from CPUID, and
// nothing else selects it; both paths produce the same bits (DESIGN.md
// §3), so the choice is visible only in the step time and in the
// tensor_kernel_avx2 gauge. The element-wise passes (vec_amd64.go) follow
// the same switch.

// useAVX2 is written at package initialization only; tests that compare
// against the fallback call the *Go kernels directly.
var useAVX2 = detectAVX2()

func init() {
	if useAVX2 {
		obs.M.TensorKernelAVX2.Set(1)
	}
}

// cpuid and xgetbv are in cpu_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// detectAVX2 reports whether AVX2 instructions may be executed: the CPU
// implements AVX and AVX2, and the OS saves the YMM state on a context
// switch (OSXSAVE set and XCR0 enabling the SSE and AVX state components).
func detectAVX2() bool {
	const (
		osxsave  = 1 << 27 // leaf 1 ECX
		avx      = 1 << 28 // leaf 1 ECX
		avx2     = 1 << 5  // leaf 7 EBX
		ymmState = 0x6     // XCR0: SSE | AVX
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmState != ymmState {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// The micro-kernels (gemm_amd64.s). Each adds a kc-deep panel product into
// FOUR rows of dst, n columns wide; strides are in elements:
//
//	gemmNN4: dst[r·ldd+j] += Σ_p a[r·ars+p·aps] · b[p·ldb+j]
//	gemmNT4: dst[r·ldd+j] += Σ_p a[r·lda+p]     · b[j·ldb+p]
//
// for r < 4, j < n, p < kc, kc > 0. They read and write exactly those
// elements; the callers below have bounds-checked them.
//
//go:noescape
func gemmNN4F64(dst unsafe.Pointer, ldd int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, ldb, kc, n int)

//go:noescape
func gemmNN4F32(dst unsafe.Pointer, ldd int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, ldb, kc, n int)

//go:noescape
func gemmNT4F64(dst unsafe.Pointer, ldd int, a unsafe.Pointer, lda int, b unsafe.Pointer, ldb, kc, n int)

//go:noescape
func gemmNT4F32(dst unsafe.Pointer, ldd int, a unsafe.Pointer, lda int, b unsafe.Pointer, ldb, kc, n int)

func gemmNN4[E Elem](dst *E, ldd int, a *E, ars, aps int, b *E, ldb, kc, n int) {
	if unsafe.Sizeof(*dst) == 8 {
		gemmNN4F64(unsafe.Pointer(dst), ldd, unsafe.Pointer(a), ars, aps, unsafe.Pointer(b), ldb, kc, n)
	} else {
		gemmNN4F32(unsafe.Pointer(dst), ldd, unsafe.Pointer(a), ars, aps, unsafe.Pointer(b), ldb, kc, n)
	}
}

func gemmNT4[E Elem](dst *E, ldd int, a *E, lda int, b *E, ldb, kc, n int) {
	if unsafe.Sizeof(*dst) == 8 {
		gemmNT4F64(unsafe.Pointer(dst), ldd, unsafe.Pointer(a), lda, unsafe.Pointer(b), ldb, kc, n)
	} else {
		gemmNT4F32(unsafe.Pointer(dst), ldd, unsafe.Pointer(a), lda, unsafe.Pointer(b), ldb, kc, n)
	}
}

func matmulTiled[E Elem](dst, a, b []E, lo, hi, k, n int) {
	if !useAVX2 {
		matmulTiledGo(dst, a, b, lo, hi, k, n)
		return
	}
	gemmNNRows(dst, a, b, lo, hi, k, n, k, 1)
}

func matmulTransATiled[E Elem](dst, a, b []E, lo, hi, k, m, n int) {
	if !useAVX2 {
		matmulTransATiledGo(dst, a, b, lo, hi, k, m, n)
		return
	}
	gemmNNRows(dst, a, b, lo, hi, k, n, 1, m)
}

// gemmNNRows accumulates dst[i][j] += Σ_p a[i·ars+p·aps]·b[p·n+j] for
// rows [lo,hi) — a·b with (ars, aps) = (k, 1), aᵀ·b with (1, m) — by
// handing 4-row groups of each KC×NC panel to gemmNN4. Panels resume from
// the stored partial sums exactly as in matmulTiledGo.
//
// The one to three rows left over by the 4-row grouping go through the
// same kernel one at a time with both row strides zero: its four "rows"
// are then the same row, computed four times over from the same inputs
// and stored four times with the same value. That costs a remainder row
// the time of a full group, which is still a quarter of the scalar loop's,
// and keeps a single row count in the assembly.
func gemmNNRows[E Elem](dst, a, b []E, lo, hi, k, n, ars, aps int) {
	if lo >= hi || k == 0 || n == 0 {
		return
	}
	// The assembly is not bounds-checked: touch the last element each
	// operand will be asked for, so a short slice panics here instead.
	_ = dst[hi*n-1]
	_ = a[(hi-1)*ars+(k-1)*aps]
	_ = b[k*n-1]
	kc, nc := tileSizes[E]()
	for pc := 0; pc < k; pc += kc {
		pe := min(pc+kc, k)
		for jc := 0; jc < n; jc += nc {
			je := min(jc+nc, n)
			bp := &b[pc*n+jc]
			i := lo
			for ; i+4 <= hi; i += 4 {
				gemmNN4(&dst[i*n+jc], n, &a[i*ars+pc*aps], ars, aps, bp, n, pe-pc, je-jc)
			}
			for ; i < hi; i++ {
				gemmNN4(&dst[i*n+jc], 0, &a[i*ars+pc*aps], 0, aps, bp, n, pe-pc, je-jc)
			}
		}
	}
}

// matmulTransBTiled: both operands are contiguous along p, so gemmNT4
// builds its lane-per-cell b vectors by transposing blocks of b rows in
// registers. The destination rows are zeroed first and every panel then
// accumulates; 0 + a₀b₀ is exact, so that is the Go loop's `var s E`
// start.
func matmulTransBTiled[E Elem](dst, a, b []E, lo, hi, k, n int) {
	if !useAVX2 {
		matmulTransBTiledGo(dst, a, b, lo, hi, k, n)
		return
	}
	if lo >= hi || k == 0 || n == 0 {
		return
	}
	_ = a[hi*k-1]
	_ = b[n*k-1]
	clear(dst[lo*n : hi*n])
	kc, _ := tileSizes[E]()
	for pc := 0; pc < k; pc += kc {
		pe := min(pc+kc, k)
		bp := &b[pc]
		i := lo
		for ; i+4 <= hi; i += 4 {
			gemmNT4(&dst[i*n], n, &a[i*k+pc], k, bp, k, pe-pc, n)
		}
		for ; i < hi; i++ { // remainder rows: see gemmNNRows
			gemmNT4(&dst[i*n], 0, &a[i*k+pc], 0, bp, k, pe-pc, n)
		}
	}
}
