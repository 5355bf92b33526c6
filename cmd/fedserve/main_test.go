package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/transport"
)

// TestMain runs the command itself when the test binary is re-executed
// with FEDSERVE_RUN_MAIN set, so a test can drive it as a process.
func TestMain(m *testing.M) {
	if os.Getenv("FEDSERVE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFleetCountBelowOneIsAUsageError: a population that cannot train is
// refused before anything starts — exit status 2 and one line naming the
// flag. An empty fleet would be trained on until the first report
// collection fails its quorum; an empty -clients entry (a doubled or a
// trailing comma) would be a client at "http://" that drops out of every
// round yet counts in the quorum's cohort size. A fleet run closes with its
// report collection, not the defense, so a -method, a -rate or a defense
// -mode it would ignore is refused the same way.
func TestFleetCountBelowOneIsAUsageError(t *testing.T) {
	const fleetDefense = "-fleet takes -mode all or none and no -method or -rate: its closing phase is one RAP and one MVP report sweep"
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fleet", "127.0.0.1:1", "-fleet-count", "0"}, "-fleet-count must be at least 1"},
		{[]string{"-fleet", "127.0.0.1:1", "-fleet-count", "-3"}, "-fleet-count must be at least 1"},
		{[]string{"-clients", "127.0.0.1:1,,127.0.0.1:2"}, "-clients has an empty address"},
		{[]string{"-clients", "127.0.0.1:1,"}, "-clients has an empty address"},
		{[]string{"-fleet", "127.0.0.1:1", "-method", "mvp"}, fleetDefense},
		{[]string{"-fleet", "127.0.0.1:1", "-rate", "0.3"}, fleetDefense},
		{[]string{"-fleet", "127.0.0.1:1", "-mode", "fp"}, fleetDefense},
		{[]string{"-fleet", "127.0.0.1:1", "-mode", "none", "-method", "rap"}, fleetDefense},
	} {
		cmd := exec.Command(os.Args[0], append(c.args, "-rounds", "1")...)
		cmd.Env = append(os.Environ(), "FEDSERVE_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%v: %v, want exit status 2\n%s", c.args, err, out)
		}
		if got := strings.TrimSpace(string(out)); got != c.want {
			t.Fatalf("%v printed %q, want %q", c.args, got, c.want)
		}
	}
}

// TestCheckpointDirResumes: a durable fedserve resumes whenever
// -checkpoint-dir holds a checkpoint of its scenario. In-process on mnist,
// a 2-round run leaves its checkpoints; a -rounds 3 run in the same
// directory resumes at round 2 and runs one round. A run that cannot
// continue them exits 1 instead of training over (and pruning away) the
// earlier run's files or defending its model under other labels: another
// -seed, another -victim (same seed and population, so only the scenario
// record tells), or -rounds below the checkpoint's round. In-process,
// -checkpoint-folds writes partial checkpoints without bounding the round's
// window: every round folds, so durability does not need Streaming.
func TestCheckpointDirResumes(t *testing.T) {
	dir := t.TempDir()
	run := func(args ...string) (string, error) {
		cmd := exec.Command(os.Args[0], append([]string{"-checkpoint-dir", dir, "-mode", "none"}, args...)...)
		cmd.Env = append(os.Environ(), "FEDSERVE_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	out, err := run("-rounds", "2")
	if err != nil {
		t.Fatalf("first run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "starting fresh") || strings.Count(out, "serve: round done") != 2 {
		t.Fatalf("first run did not train 2 fresh rounds:\n%s", out)
	}
	out, err = run("-rounds", "3")
	if err != nil {
		t.Fatalf("second run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "serve: resumed from checkpoint") || !strings.Contains(out, "next_round=2") {
		t.Fatalf("second run did not resume at round 2:\n%s", out)
	}
	if n := strings.Count(out, "serve: round done"); n != 1 || !strings.Contains(out, "serve: round done round=2 ") {
		t.Fatalf("second run ran %d rounds, want round 2 only:\n%s", n, out)
	}
	// Each refusal exits 1 after main's deferred flushes: the CPU profile
	// is written and the exit snapshot printed. So does a flight recorder
	// that cannot be opened.
	for i, c := range []struct {
		args       []string
		kind, want string
	}{
		{[]string{"-rounds", "3", "-seed", "5"}, "resume:", "seed"},
		{[]string{"-rounds", "3", "-victim", "4"}, "resume:", "another scenario"},
		{[]string{"-rounds", "3", "-attackers", "0"}, "resume:", "another scenario"},
		{[]string{"-rounds", "2"}, "resume:", "past -rounds 2"},
		{[]string{"-rounds", "3", "-flight-recorder", filepath.Join(dir, "missing", "flight.jsonl")}, "obs: flight recorder", "no such file"},
	} {
		profile := filepath.Join(t.TempDir(), fmt.Sprintf("cpu%d.pprof", i))
		out, err = run(append(c.args, "-cpuprofile", profile)...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: %v, want exit status 1\n%s", c.args, err, out)
		}
		if !strings.Contains(out, c.kind) || !strings.Contains(out, c.want) || strings.Contains(out, "round done") {
			t.Fatalf("%v printed no %s error naming %q, or trained:\n%s", c.args, c.kind, c.want, out)
		}
		if !strings.Contains(out, "final metrics snapshot:") {
			t.Fatalf("%v exited without the exit snapshot:\n%s", c.args, out)
		}
		if fi, err := os.Stat(profile); err != nil || fi.Size() == 0 {
			t.Fatalf("%v left no CPU profile (%v):\n%s", c.args, err, out)
		}
	}

	dir = t.TempDir()
	out, err = run("-rounds", "1", "-checkpoint-folds", "1")
	if err != nil {
		t.Fatalf("-checkpoint-folds run: %v\n%s", err, out)
	}
	if partials, _ := filepath.Glob(filepath.Join(dir, "ckpt-*-p*.fcc")); len(partials) == 0 {
		t.Fatalf("-checkpoint-folds 1 wrote no partial checkpoint:\n%s", out)
	}
	if strings.Count(out, "serve: round done") != 1 || strings.Count(out, "peak_inflight=0") != 1 {
		t.Fatalf("an in-process round bounded its window (want peak_inflight=0):\n%s", out)
	}
}

// TestDefenseBelowQuorumExits1: a fleet whose every rank and vote call is
// refused with a 400 (permanent, so tried once) trains its round, then
// fails the report sweep's quorum. fedserve logs one line naming the
// quorum error and exits 1, without a panic's goroutine dump.
func TestDefenseBelowQuorumExits1(t *testing.T) {
	fleet := transport.NewFleet()
	for id := 0; id < 4; id++ {
		fleet.Add(&fl.SyntheticClient{Id: id, Seed: 1})
	}
	h := fleet.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/v1/ranks") || strings.HasSuffix(r.URL.Path, "/v1/votes") {
			http.Error(w, "refused", http.StatusBadRequest)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	cmd := exec.Command(os.Args[0], "-fleet", strings.TrimPrefix(srv.URL, "http://"),
		"-fleet-count", "4", "-select", "4", "-rounds", "1", "-mode", "all")
	cmd.Env = append(os.Environ(), "FEDSERVE_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("%v, want exit status 1\n%s", err, out)
	}
	const want = "serve: defense failed err=core: 0 of 4 reports arrived, quorum needs 2"
	if !strings.Contains(string(out), want) || strings.Count(string(out), "serve: defense failed") != 1 {
		t.Fatalf("output lacks the one line %q:\n%s", want, out)
	}
	if strings.Contains(string(out), "goroutine ") || strings.Contains(string(out), "panic:") {
		t.Fatalf("output carries a panic:\n%s", out)
	}
	if !strings.Contains(string(out), "\ndefense_report_quorum_failures_total 1\n") {
		t.Fatalf("the exit snapshot does not count the quorum failure:\n%s", out)
	}
}
