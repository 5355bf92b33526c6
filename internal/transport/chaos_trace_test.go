package transport

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/obs"
)

// TestChaosFleetTraceAndAuditResume is the observability acceptance run
// (ISSUE 10): a wire-served federation with an always-faulty client and a
// scripted mid-collection coordinator kill, restarted from its checkpoint
// with the flight recorder reopened in append mode — the way a real
// restarted fedserve would. It asserts the two artifacts the tracing
// layer promises:
//
//   - the flight-recorder JSONL holds exactly one audit per completed
//     round, field-for-field equal to that round's RoundResult, with the
//     resumed round marked (Resumed, ResumePrefix, checkpoint path);
//   - every audited trace ID names one connected span tree in the ring,
//     rooted at the round's fl.round span and crossing the wire into the
//     clients' fleet handler spans (fedload.update).
func TestChaosFleetTraceAndAuditResume(t *testing.T) {
	obs.DefaultSpans.Reset()
	template := restartTemplate()
	const rounds = 3
	cfg := restartCfg(4)
	addrs, shutdown := serveRestartFleet(t, template)
	defer shutdown()
	dir := t.TempDir()
	flightPath := filepath.Join(t.TempDir(), "flight.jsonl")

	results := map[int]fl.RoundResult{}

	// First coordinator image: records rounds until the kill at round 1.
	fr, err := obs.NewFlightRecorder(flightPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newCoordinator(template, addrs, cfg, dir)
	s.Audit = fr
	crashCoordinatorAt(s, fl.CrashMidCollection, 1, 1)
	crashed := false
	for r := 0; r < rounds && !crashed; r++ {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(wireCrash); !ok {
						panic(rec)
					}
					crashed = true
				}
			}()
			results[r] = s.RoundDetail(r)
		}()
	}
	if !crashed {
		t.Fatal("scripted coordinator kill never fired")
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}

	// Restarted image: fresh recorder on the same file, O_APPEND.
	fr2, err := obs.NewFlightRecorder(flightPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fr2.Close()
	res := newCoordinator(template, addrs, cfg, dir)
	res.Audit = fr2
	next, resumed, err := res.ResumeLatest(dir)
	if err != nil || !resumed {
		t.Fatalf("resume: %v (found %v)", err, resumed)
	}
	if next != 1 {
		t.Fatalf("resumed at round %d, want the interrupted round 1", next)
	}
	for r := next; r < rounds; r++ {
		results[r] = res.RoundDetail(r)
	}

	audits := readAuditFile(t, flightPath)
	if len(audits) != rounds {
		t.Fatalf("flight recorder holds %d audits, want %d (one per completed round)", len(audits), rounds)
	}
	for i, a := range audits {
		if a.Round != i {
			t.Fatalf("audit %d is for round %d, want %d", i, a.Round, i)
		}
		rr, ok := results[a.Round]
		if !ok {
			t.Fatalf("audit for round %d has no recorded RoundResult", a.Round)
		}
		assertAuditMatchesResult(t, a, rr)
		if a.Trace == 0 {
			t.Fatalf("round %d audit carries no trace ID", a.Round)
		}
		if a.DurationMS <= 0 || a.Attempts == 0 {
			t.Fatalf("round %d audit missing timings: %+v", a.Round, a)
		}
		if a.Checkpoint == "" || !strings.HasPrefix(a.Checkpoint, dir) {
			t.Fatalf("round %d audit checkpoint %q not under %q", a.Round, a.Checkpoint, dir)
		}
		// The faulty client exhausts its retries every exchange it is
		// selected for; those retries must surface in the round's audit.
		if containsInt(a.Dropped, restartFaulty) && a.Retries == 0 {
			t.Fatalf("round %d dropped client %d without recording retries", a.Round, restartFaulty)
		}
		if wantResumed := a.Round == 1; a.Resumed != wantResumed {
			t.Fatalf("round %d audit Resumed=%v, want %v", a.Round, a.Resumed, wantResumed)
		}
		if a.Round == 1 && a.ResumePrefix != 1 {
			t.Fatalf("resumed round audit ResumePrefix=%d, want 1 (folds before the kill)", a.ResumePrefix)
		}
	}

	for _, a := range audits {
		assertConnectedTrace(t, a)
	}
}

// readAuditFile parses the flight-recorder JSONL.
func readAuditFile(t *testing.T, path string) []fl.RoundAudit {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var audits []fl.RoundAudit
	for i, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var a fl.RoundAudit
		if err := json.Unmarshal([]byte(line), &a); err != nil {
			t.Fatalf("flight line %d: %v", i, err)
		}
		audits = append(audits, a)
	}
	return audits
}

// assertAuditMatchesResult checks the audit's RoundResult mirror field
// for field.
func assertAuditMatchesResult(t *testing.T, a fl.RoundAudit, rr fl.RoundResult) {
	t.Helper()
	if !sameIntSlices(a.Selected, rr.Selected) ||
		!sameIntSlices(a.Completed, rr.Completed) ||
		!sameIntSlices(a.Dropped, rr.Dropped) ||
		a.Applied != rr.Applied || a.PeakInFlight != rr.PeakInFlight {
		t.Fatalf("round %d audit diverges from RoundResult:\naudit  %+v\nresult %+v", a.Round, a, rr)
	}
	if len(a.Errors) != len(rr.Errs) {
		t.Fatalf("round %d audit has %d errors, result has %d", a.Round, len(a.Errors), len(rr.Errs))
	}
	for id, err := range rr.Errs {
		if a.Errors[id] != err.Error() {
			t.Fatalf("round %d client %d error %q, want %q", a.Round, id, a.Errors[id], err.Error())
		}
	}
}

// assertConnectedTrace waits for the audited round's span tree to settle
// in the ring (handler spans can end a beat after the caller reads the
// response) and asserts it is one connected tree: a single fl.round root,
// every other span reachable from it, with the wire legs — call, attempt
// and the client fleet's handler span — present.
func assertConnectedTrace(t *testing.T, a fl.RoundAudit) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans := map[obs.SpanID]obs.SpanRecord{}
		names := map[string]int{}
		var root obs.SpanRecord
		roots := 0
		for _, rec := range obs.DefaultSpans.Snapshot() {
			if rec.Trace != a.Trace {
				continue
			}
			spans[rec.Span] = rec
			names[rec.Name]++
			if rec.Parent == 0 {
				root, roots = rec, roots+1
			}
		}
		orphans := 0
		for _, rec := range spans {
			if rec.Parent != 0 {
				if _, ok := spans[rec.Parent]; !ok {
					orphans++
				}
			}
		}
		ok := roots == 1 && orphans == 0 && root.Name == "fl.round" &&
			names["transport.call"] > 0 && names["transport.attempt"] > 0 &&
			names["fedload.update"] > 0 &&
			(a.Round != 1 || names["fl.round.resume"] == 1)
		if ok {
			if root.Round != int64(a.Round) {
				t.Fatalf("trace %s root is round %d, want %d", a.Trace, root.Round, a.Round)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s (round %d) never settled into one connected tree: roots=%d orphans=%d names=%v",
				a.Trace, a.Round, roots, orphans, names)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
