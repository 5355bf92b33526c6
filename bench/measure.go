package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"syscall"
	"time"
)

// runSpec is one invocation of one workload.
type runSpec struct {
	Workload string
	Seed     int64
	// Seconds is how long the measured section runs. Round-based phases stop
	// at the first round boundary past their share of it; rep-based phases
	// finish the rep in flight.
	Seconds float64
	// Trace selects the traced pass (per-layer metrics) over the untraced
	// pass (end-to-end metrics).
	Trace bool
	// Toy shrinks every size so the whole workload runs in about a second;
	// bench_test.go uses it to notice when an API the benchmark needs moves.
	Toy bool
	// OutDir receives scratch files (checkpoints, flight log) while the
	// workload runs, and its trace when it ends.
	OutDir string
}

// setups is how often the workload is set up: three times in a full untraced
// run, of which setup_s is the median.
func (s runSpec) setups() int {
	if s.Trace || s.Toy {
		return 1
	}
	return 3
}

// runResult is what one workload run reports.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// EndToEnd holds the end-to-end metrics at reference speed (see
	// refBurst); RawEndToEnd the same statistics of the unadjusted timings, and
	// SpeedIndex the host's median speed during the run, 1 = reference.
	EndToEnd    map[string]metric `json:"end_to_end"`
	RawEndToEnd map[string]metric `json:"raw_end_to_end"`
	SpeedIndex  float64           `json:"speed_index"`
	// Samples keeps what the end-to-end statistics were taken over: every
	// reference burst, and per operation its raw nanoseconds and the positions
	// of the bursts around it.
	Samples  map[string][][3]float64 `json:"samples,omitempty"`
	Bursts   []float64               `json:"bursts_ns,omitempty"`
	PerLayer map[string]metric       `json:"per_layer,omitempty"`
	// Info carries what is printed but is not a metric: model hashes, TA and
	// ASR per rep, the sizes the run used.
	Info   map[string]any `json:"info"`
	Rollup []stageRow     `json:"rollup,omitempty"`
}

// setEndToEnd fills the end-to-end results from the untraced section.
func (r *runResult) setEndToEnd(sec *section) {
	r.EndToEnd = endToEndMetrics(sec, true)
	r.RawEndToEnd = endToEndMetrics(sec, false)
	r.SpeedIndex = sec.speedIndex()
	r.Bursts = sec.setups.log.ns
	r.Samples = map[string][][3]float64{}
	for name, t := range map[string]*timings{"setups": &sec.setups, "rounds": &sec.rounds.rounds, "defense": &sec.defense, "reps": &sec.reps} {
		for _, op := range t.ops {
			r.Samples[name] = append(r.Samples[name], [3]float64{op.rawNS, float64(op.from), float64(op.to)})
		}
	}
}

// setLedger copies the operation counts into the result.
func (r *runResult) setLedger(l *ledger) {
	r.Attempted, r.Failed, r.Failures = l.attempted, l.failed, l.failures
}

// ledger counts operations attempted and failed. An operation is a client
// update, a report, a round, a rep or a correctness check.
type ledger struct {
	attempted, failed int
	failures          []string
}

// ops records n attempted operations of which bad failed.
func (l *ledger) ops(n, bad int, what string) {
	l.attempted += n
	if bad > 0 {
		l.failed += bad
		l.note("%d of %d %s failed", bad, n, what)
	}
}

// check records one correctness check.
func (l *ledger) check(ok bool, format string, args ...any) {
	l.attempted++
	if !ok {
		l.failed++
		l.note(format, args...)
	}
}

func (l *ledger) note(format string, args ...any) {
	if len(l.failures) < 32 { // enough to diagnose; a broken run would repeat one line thousands of times
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

// resourceMark is a reading of the process's wall clock, CPU time and
// cumulative heap allocation.
type resourceMark struct {
	at     time.Time
	cpuMS  float64
	allocB uint64
}

func markResources() resourceMark {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return resourceMark{at: time.Now(), cpuMS: tv(ru.Utime) + tv(ru.Stime), allocB: ms.TotalAlloc}
}

// The reference kernel. The hosts this benchmark runs on change speed by
// 1.2x to 1.5x for minutes at a time (neighbours contending for cache and
// memory bandwidth), which is more than any bound below. So every timing is
// taken beside a burst of fixed work that no PR can touch — it lives here,
// outside the system under test — and reported at reference speed:
//
//	adjusted = raw x refNominalNS / (burst time measured around it)
//
// The burst is half dependent arithmetic and half a walk over a 512 KiB
// buffer, because the slowdowns observed hit memory traffic hard and pure
// arithmetic hardly at all, and the workloads sit in between. Raw values are
// kept beside the adjusted ones in the result file.
const (
	refChainSteps = 1_000_000
	refBufLen     = 1 << 16
	refPasses     = 45
	// refNominalNS is what one burst takes on the 2-core reference host when
	// nothing contends with it. It only fixes the scale: on a faster host every
	// adjusted timing shrinks by the same factor.
	refNominalNS = 4.7e6
	// refWindow is how many bursts on either side of an operation's own join
	// the median that gives its speed; single ~5 ms bursts are noisy.
	refWindow = 2
)

var (
	refBuf  = make([]float64, refBufLen)
	refSink float64 // keeps the kernel's results live
)

// refBurst runs the reference kernel once and returns how long it took.
func refBurst() float64 {
	t0 := time.Now()
	x := 1.0
	for i := 0; i < refChainSteps; i++ {
		x = x*1.0000001 + 0.1
	}
	acc := 0.0
	for k := 0; k < refPasses; k++ {
		for i, v := range refBuf {
			acc += v * 1.0000001
			refBuf[i] = v + 1e-9
		}
	}
	refSink += x + acc
	return float64(time.Since(t0).Nanoseconds())
}

// speedLog is the run's sequence of reference bursts.
type speedLog struct {
	ns []float64
	// tr, in the traced pass, gets a span per burst, so the time the
	// benchmark spends on its own clock is attributed like any other.
	tr *tracer
}

// burst runs the kernel and returns the position of its sample.
func (l *speedLog) burst() int {
	l.tr.span("bench.reference_burst", func() { l.ns = append(l.ns, refBurst()) })
	return len(l.ns) - 1
}

// index is the host's speed around an operation bracketed by bursts from and
// to, as a share of reference speed: 1 on an idle reference host, 0.7 when
// the same work takes 1/0.7 as long.
func (l *speedLog) index(from, to int) float64 {
	lo, hi := from-refWindow, to+refWindow+1
	if lo < 0 {
		lo = 0
	}
	if hi > len(l.ns) {
		hi = len(l.ns)
	}
	return refNominalNS / median(l.ns[lo:hi])
}

// timing is one measured operation: its raw duration and the bursts that
// bracket it.
type timing struct {
	rawNS    float64
	from, to int
}

// timings is a list of measured operations sharing one speedLog.
type timings struct {
	log *speedLog
	ops []timing
}

// measure times f between two reference bursts. Consecutive operations share
// the burst between them.
func (t *timings) measure(f func()) {
	from := len(t.log.ns) - 1
	if len(t.ops) == 0 || t.ops[len(t.ops)-1].to != from {
		from = t.log.burst()
	}
	t0 := time.Now()
	f()
	raw := float64(time.Since(t0).Nanoseconds())
	t.ops = append(t.ops, timing{rawNS: raw, from: from, to: t.log.burst()})
}

// values returns the operations' durations in the given unit (nanoseconds per
// unit), adjusted to reference speed or raw.
func (t *timings) values(unit float64, adjusted bool) []float64 {
	out := make([]float64, len(t.ops))
	for i, op := range t.ops {
		out[i] = op.rawNS / unit
		if adjusted {
			out[i] *= t.log.index(op.from, op.to)
		}
	}
	return out
}

// roundPhase accumulates the federated rounds of a section: each round's
// timing and completed updates, plus the CPU and allocation spent between
// begin and end, which bracket only the rounds (and their reference bursts,
// whose CPU time is taken out again).
type roundPhase struct {
	rounds  timings
	updates int
	cpuMS   float64
	allocKB float64

	open      resourceMark
	openBurst int
}

func (p *roundPhase) begin() {
	p.open = markResources()
	p.openBurst = len(p.rounds.log.ns)
}

func (p *roundPhase) end() {
	now := markResources()
	p.cpuMS += now.cpuMS - p.open.cpuMS
	for _, ns := range p.rounds.log.ns[p.openBurst:] {
		p.cpuMS -= ns / 1e6 // a burst is one busy thread: its CPU time is its wall time
	}
	p.allocKB += float64(now.allocB-p.open.allocB) / 1024
}

// round times one round; f returns how many client updates completed.
func (p *roundPhase) round(f func() int) {
	p.rounds.measure(func() { p.updates += f() })
}

// section is the measured part of a workload run: the set-ups, the round
// phase, the defense phases, and (cleanse workloads) the whole reps.
type section struct {
	setups  timings
	rounds  roundPhase
	defense timings
	reps    timings
}

// newSection returns a section whose timings share one speed log; tr is nil
// for an untraced section.
func newSection(tr *tracer) *section {
	log := &speedLog{tr: tr}
	s := &section{}
	s.setups.log, s.rounds.rounds.log, s.defense.log, s.reps.log = log, log, log, log
	return s
}

// sum adds up xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// endToEndMetrics turns a section into the end-to-end metric set, at
// reference speed or raw.
func endToEndMetrics(sec *section, adjusted bool) map[string]metric {
	ms := newMetricSet(endToEnd)
	r := &sec.rounds
	roundMS := r.rounds.values(1e6, adjusted)
	ms.setMedian("setup_s", sec.setups.values(1e9, adjusted))
	ms.setMedian("round_p50_ms", roundMS)
	ms.set("round_p90_ms", percentile(roundMS, 90), len(roundMS))
	ms.setMedian("defense_ms", sec.defense.values(1e6, adjusted))
	if wallMS := sum(roundMS); wallMS > 0 && r.updates > 0 {
		n := float64(r.updates)
		ms.set("updates_per_s", n/(wallMS/1e3), r.updates)
		// CPU time is measured over the whole phase, so it is adjusted by the
		// phase's time-weighted speed.
		speed := wallMS / sum(r.rounds.values(1e6, false))
		ms.set("cpu_ms_per_update", r.cpuMS*speed/n, r.updates)
		ms.set("alloc_kb_per_update", r.allocKB/n, r.updates)
	}
	ms.fillMissing()
	return ms.values
}

// speedIndex is the section's median host speed as a share of reference speed.
func (s *section) speedIndex() float64 {
	if len(s.setups.log.ns) == 0 {
		return 0
	}
	return refNominalNS / median(s.setups.log.ns)
}

// hashFloats is the FNV-64a hash of the values' IEEE-754 bit patterns: equal
// hashes mean bit-identical parameter vectors.
func hashFloats(v []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		b := math.Float64bits(x)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		_, _ = h.Write(buf[:]) // hash.Hash never returns an error
	}
	return h.Sum64()
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// isPermutation reports whether order holds every unit in [0,n) exactly once.
func isPermutation(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, u := range order {
		if u < 0 || u >= n || seen[u] {
			return false
		}
		seen[u] = true
	}
	return true
}

// timeCalls runs f warm times untimed, then n times timed, and returns each
// call's duration in the given unit (nanoseconds per unit).
func timeCalls(warm, n int, unit float64, f func()) []float64 {
	for i := 0; i < warm; i++ {
		f()
	}
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = float64(time.Since(t0).Nanoseconds()) / unit
	}
	return out
}
