package tensor

import (
	"os"
	"strings"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/obs"
)

// TestDetectAVX2MatchesKernel cross-checks the CPUID/XGETBV routine with
// the kernel's own reading of the same bits: on Linux, "avx2" appears in
// /proc/cpuinfo exactly when the CPU has it and the OS enabled the YMM
// state. It also pins the gauge to the dispatch decision.
func TestDetectAVX2MatchesKernel(t *testing.T) {
	if got := obs.M.TensorKernelAVX2.Value() == 1; got != useAVX2 {
		t.Fatalf("tensor_kernel_avx2 gauge says %v, dispatch says %v", got, useAVX2)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	want := false
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			want = strings.Contains(" "+line+" ", " avx2 ")
			break
		}
	}
	if got := detectAVX2(); got != want {
		t.Fatalf("detectAVX2() = %v, /proc/cpuinfo says %v", got, want)
	}
	// bench-smoke greps this line into its artifact, so the uploaded
	// numbers say which kernels produced them.
	t.Logf("tensor_kernel_avx2=%d", obs.M.TensorKernelAVX2.Value())
}
