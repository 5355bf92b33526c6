// Package profiling wires the standard pprof escape hatches into the
// repository's commands: -cpuprofile captures where a federated run spends
// its time, -memprofile captures what still allocates (the training hot
// path is allocation-free after warm-up — see DESIGN.md §4 — so the heap
// profile is dominated by model and dataset construction).
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile destinations registered by AddFlags.
type Flags struct {
	CPU *string
	Mem *string
}

// AddFlags registers -cpuprofile and -memprofile on the default flag set.
// Call before flag.Parse.
func AddFlags() *Flags {
	return &Flags{
		CPU: flag.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		Mem: flag.String("memprofile", "", "write a pprof heap profile to this file on exit"),
	}
}

// Start begins profiling per the parsed flags and returns the function that
// finalizes both profiles; defer it right after flag.Parse:
//
//	prof := profiling.AddFlags()
//	flag.Parse()
//	defer prof.Start()()
func (f *Flags) Start() (stop func()) {
	return Start(*f.CPU, *f.Mem)
}

// Start begins CPU profiling when cpuPath is non-empty and returns a stop
// function that ends the CPU profile and, when memPath is non-empty, writes
// a heap profile (after a GC, so it reflects live memory, not garbage).
// Profile-file errors are fatal: a profiling run that silently drops its
// profile is worse than one that fails loudly.
func Start(cpuPath, memPath string) (stop func()) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fatalf("profiling: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("profiling: start CPU profile: %v", err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fatalf("profiling: close CPU profile: %v", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fatalf("profiling: %v", err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("profiling: write heap profile: %v", err)
			}
			if err := f.Close(); err != nil {
				fatalf("profiling: close heap profile: %v", err)
			}
		}
	}
}

// fatalf is indirected for tests.
var fatalf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
