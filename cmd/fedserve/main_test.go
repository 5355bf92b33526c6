package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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

// TestFleetCountBelowOneIsAUsageError: an empty fleet population is refused
// before anything starts — exit status 2 and one line naming the flag — not
// trained on until the first report collection panics on its quorum.
func TestFleetCountBelowOneIsAUsageError(t *testing.T) {
	for _, n := range []string{"0", "-3"} {
		cmd := exec.Command(os.Args[0], "-fleet", "127.0.0.1:1", "-fleet-count", n, "-rounds", "1")
		cmd.Env = append(os.Environ(), "FEDSERVE_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-fleet-count %s: %v, want exit status 2\n%s", n, err, out)
		}
		if got := strings.TrimSpace(string(out)); got != "-fleet-count must be at least 1" {
			t.Fatalf("-fleet-count %s printed %q", n, got)
		}
	}
}
