// Command bench is the repository's one performance instrument: four
// workloads, a fixed set of end-to-end metrics with regression bounds, and a
// traced pass that attributes them to layers. See README.md in this
// directory and BENCHMARK.json at the repository root.
//
//	go run ./bench [-workload <name>|all] [-seed N] [-seconds S] [-trace 0|1] [-out dir]
//	go run ./bench -agree A B
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// environment is where a result set was measured.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// resultFile is what one invocation writes under -out.
type resultFile struct {
	Env     environment  `json:"env"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Traced  bool         `json:"traced"`
	Runs    []*runResult `json:"runs"`
}

// finalLine is the contract's last line of standard output.
type finalLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]finalValue `json:"metrics"`
}

type finalValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 18, "length of the measured section of each workload")
	trace := flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for results, traces and scratch files")
	agree := flag.Bool("agree", false, "compare two result sets (files or directories) given as arguments")
	flag.Parse()

	if *agree {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -agree A B")
			return 2
		}
		return runAgree(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		return 2
	}
	names := workloadNames
	if *workload != "all" {
		known := false
		for _, n := range workloadNames {
			known = known || n == *workload
		}
		if !known {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	file := resultFile{Env: readEnvironment(), Seed: *seed, Seconds: *seconds, Traced: *trace == 1}
	fmt.Printf("# commit=%s go=%s nproc=%d gomaxprocs=%d seed=%d seconds=%g trace=%d\n",
		file.Env.Commit, file.Env.GoVersion, file.Env.NumCPU, file.Env.GOMAXPROCS, *seed, *seconds, *trace)
	failed := false
	for _, name := range names {
		res, err := runWorkload(runSpec{Workload: name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: *out})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return 1
		}
		file.Runs = append(file.Runs, res)
		failed = failed || res.Failed > 0
		printRun(res)
	}

	label := *workload
	if file.Traced {
		label += "-traced"
	}
	path := filepath.Join(*out, fmt.Sprintf("results-%d-%s.json", *seed, label))
	if err := writeJSON(path, file); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("# wrote %s\n", path)
	// The last line of output is the last workload's result object.
	printFinal(file.Runs[len(file.Runs)-1])
	if failed {
		return 1
	}
	return 0
}

// printRun prints one line per metric, `workload metric value unit n=<samples>`,
// then the run's informational fields, failures and (traced) roll-up.
func printRun(res *runResult) {
	printMetrics := func(defs []metricDef, values map[string]metric) {
		for _, d := range defs {
			if m, ok := values[d.Name]; ok {
				fmt.Printf("%s %s %.6g %s n=%d\n", res.Workload, d.Name, m.Value, m.Unit, m.N)
			}
		}
	}
	printMetrics(endToEnd, res.EndToEnd)
	printMetrics(perLayer, res.PerLayer)
	if n := res.EndToEnd["round_p90_ms"].N; tailPercentile(n) < 90 {
		fmt.Printf("# %s round_p90_ms: %d rounds have ten samples beyond p%g at most; read it as the slowest rounds, not a tail estimate\n",
			res.Workload, n, tailPercentile(n))
	}
	// End-to-end timings above are at reference speed; these are the same
	// statistics of the timings as the clock read them.
	fmt.Printf("# %s host speed %.3f of reference; unadjusted:", res.Workload, res.SpeedIndex)
	for _, d := range endToEnd {
		fmt.Printf(" %s=%.6g", d.Name, res.RawEndToEnd[d.Name].Value)
	}
	fmt.Println()
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %s %s=%v\n", res.Workload, k, res.Info[k])
	}
	fmt.Printf("# %s attempted=%d failed=%d\n", res.Workload, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("# %s FAILED: %s\n", res.Workload, f)
	}
	if len(res.Rollup) > 0 {
		printRollup(os.Stdout, res.Workload, res.Rollup)
	}
}

// printFinal prints the contract's result object: every end-to-end metric of
// an untraced run, every per-layer metric of a traced one.
func printFinal(res *runResult) {
	values := res.EndToEnd
	if res.Traced {
		values = res.PerLayer
	}
	line := finalLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]finalValue, len(values))}
	for name, m := range values {
		line.Metrics[name] = finalValue{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings; a NaN here is a bug in the benchmark
	}
	fmt.Println(string(b))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readEnvironment records where the run happens. The commit is unknown when
// the checkout is not a git repository.
func readEnvironment() environment {
	env := environment{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(b))
	}
	return env
}
