package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run the command itself: with P2PSIM_RUN_MAIN
// set, the test binary is p2psim (main parses the remaining arguments).
func TestMain(m *testing.M) {
	if os.Getenv("P2PSIM_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// p2psim runs the command in a fresh process and returns its stdout,
// stderr and exit code.
func p2psim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "P2PSIM_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// The checkpoint exit-code contract: -halt K stops after K replications
// with exit code 3 and a resume hint, -resume finishes the run with the
// report a plain run prints, and a -halt at or past the replication
// count is a complete run.
func TestCheckpointHaltResumeContract(t *testing.T) {
	scenario := []string{"-nodes", "12", "-area", "50", "-range", "15", "-duration", "120", "-reps", "2"}
	plain, stderr, code := p2psim(t, scenario...)
	if code != 0 {
		t.Fatalf("plain run: exit %d\n%s", code, stderr)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, stderr, code = p2psim(t, append(scenario, "-checkpoint", path, "-halt", "1")...)
	if code != 3 {
		t.Fatalf("-halt 1: exit %d, want 3\n%s", code, stderr)
	}
	if hint := "p2psim -resume " + path; !strings.Contains(stderr, hint) {
		t.Errorf("-halt 1: stderr %q lacks the resume hint %q", stderr, hint)
	}

	resumed, stderr, code := p2psim(t, "-resume", path)
	if code != 0 {
		t.Fatalf("-resume: exit %d\n%s", code, stderr)
	}
	if resumed != plain {
		t.Errorf("-resume stdout differs from the plain run:\n%s\nvs\n%s", resumed, plain)
	}

	full, stderr, code := p2psim(t, append(scenario, "-checkpoint", filepath.Join(t.TempDir(), "full.ckpt"), "-halt", "2")...)
	if code != 0 {
		t.Fatalf("-halt 2 with -reps 2: exit %d, want 0\n%s", code, stderr)
	}
	if full != plain {
		t.Error("-halt 2 with -reps 2: stdout differs from the plain run")
	}
}
