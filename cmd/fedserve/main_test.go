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

// TestFleetCountBelowOneIsAUsageError: a population that cannot train is
// refused before anything starts — exit status 2 and one line naming the
// flag. An empty fleet would be trained on until the first report
// collection panics on its quorum; an empty -clients entry (a doubled or a
// trailing comma) would be a client at "http://" that drops out of every
// round yet counts in the quorum's cohort size.
func TestFleetCountBelowOneIsAUsageError(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fleet", "127.0.0.1:1", "-fleet-count", "0"}, "-fleet-count must be at least 1"},
		{[]string{"-fleet", "127.0.0.1:1", "-fleet-count", "-3"}, "-fleet-count must be at least 1"},
		{[]string{"-clients", "127.0.0.1:1,,127.0.0.1:2"}, "-clients has an empty address"},
		{[]string{"-clients", "127.0.0.1:1,"}, "-clients has an empty address"},
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
