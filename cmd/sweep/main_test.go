package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets the tests run the command itself: with SWEEP_RUN_MAIN
// set, the test binary is sweep (main parses the remaining arguments).
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sweep runs the command in a fresh process and returns its stdout.
func sweep(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SWEEP_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("sweep %v: %v\n%s", args, err, errOut.String())
	}
	return out.String()
}

var smallAxis = []string{"-quiet", "-axis", "speed", "-algs", "basic,regular", "-reps", "2", "-nodes", "12", "-duration", "120"}

// Rows print in grid order whatever the worker budget, so the output
// does not depend on -jobs.
func TestSweepOutputIndependentOfJobs(t *testing.T) {
	one := sweep(t, append(smallAxis, "-jobs", "1")...)
	two := sweep(t, append(smallAxis, "-jobs", "2")...)
	if one != two {
		t.Errorf("-jobs 1 and -jobs 2 print different output:\n%s\nvs\n%s", one, two)
	}
}

// A second sweep over the same checkpoint directory loads every cell
// from its finished file — rewriting none of them, so no replication
// re-ran — and prints the same rows.
func TestSweepCheckpointReload(t *testing.T) {
	dir := t.TempDir()
	args := append(smallAxis, "-jobs", "2", "-checkpoint", dir)
	first := sweep(t, args...)
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 8 { // 4 speed points x 2 algorithms
		t.Fatalf("checkpoint files = %v, want one per cell (8)", files)
	}
	before := make([]os.FileInfo, len(files))
	for i, f := range files {
		if before[i], err = os.Stat(f); err != nil {
			t.Fatal(err)
		}
	}

	second := sweep(t, args...)
	if second != first {
		t.Errorf("reloaded sweep prints different output:\n%s\nvs\n%s", second, first)
	}
	for i, f := range files {
		after, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		// Checkpoints are written by rename, so any persist would leave
		// a different file behind the name.
		if !os.SameFile(before[i], after) {
			t.Errorf("%s was rewritten; reloading a finished cell must only read it", f)
		}
	}
}
