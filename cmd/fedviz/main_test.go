package main

import (
	"errors"
	"image/png"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with FEDVIZ_RUN_MAIN set, so a test can drive it as a process.
func TestMain(m *testing.M) {
	if os.Getenv("FEDVIZ_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fedviz runs the command with args and returns its combined output and
// error.
func fedviz(args ...string) ([]byte, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FEDVIZ_RUN_MAIN=1")
	return cmd.CombinedOutput()
}

// TestRendersDecodablePNGs: a class grid and a trigger comparison each
// come out as a PNG that image/png decodes. -weights trains a federation
// first and is left out.
func TestRendersDecodablePNGs(t *testing.T) {
	dir := t.TempDir()
	for name, args := range map[string][]string{
		"mnist.png":          {"-dataset", "mnist"},
		"cifar_triggers.png": {"-dataset", "cifar", "-triggers"},
	} {
		path := filepath.Join(dir, name)
		if out, err := fedviz(append(args, "-out", path)...); err != nil {
			t.Fatalf("fedviz %v: %v\n%s", args, err, out)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		img, err := png.Decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("fedviz %v: %s does not decode: %v", args, name, err)
		}
		if b := img.Bounds(); b.Dx() == 0 || b.Dy() == 0 {
			t.Fatalf("fedviz %v: empty %v image", args, b)
		}
	}
}

// TestUnknownDatasetIsAUsageError: an unknown -dataset exits 2 and writes
// no file.
func TestUnknownDatasetIsAUsageError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.png")
	out, err := fedviz("-dataset", "imagenet", "-out", path)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-dataset imagenet: %v, want exit status 2\n%s", err, out)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("-dataset imagenet left %s behind (stat: %v)", path, err)
	}
}
