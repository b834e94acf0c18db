package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestCheckFlags: flag combinations that would run but silently skip what
// they ask for are rejected; the CI invocations are accepted.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name      string
		scale     int
		shards    int
		measure   bool
		maxLiveMB float64
		ok        bool
	}{
		{"no -scale", 0, 1, false, 0, false},
		{"ceiling without -measure", 1024, 1, false, 0.001, false},
		{"-measure on the sharded kernel", 1024, 8, true, 0, false},
		{"plain point", 1024, 1, false, 0, true},
		{"sharded point", 65536, 8, false, 0, true},
		{"CI footprint gate", 16384, 1, true, 128, true},
	} {
		err := checkFlags(tc.scale, tc.shards, tc.measure, tc.maxLiveMB)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags error = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestOneNodePointFails builds the command and runs a one-node point, which
// has no active rank to measure: it must report an error and exit 1, not
// print nothing and succeed.
func TestOneNodePointFails(t *testing.T) {
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "memscale")
	if out, err := exec.Command(gotool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-scale", "1", "-measure")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("memscale -scale 1 -measure: err = %v, want exit status 1 (stdout %q)", err, stdout.String())
	}
	if stderr.Len() == 0 {
		t.Error("exit 1 with no message on stderr")
	}
}
