package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as reese-sim itself: with
// REESE_SIM_MAIN set, the process runs the CLI on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("REESE_SIM_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// sim runs the CLI in a child process and returns its exit status and
// standard error.
func sim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REESE_SIM_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// TestFaultBitOutOfRange: -fault-bit names one of the 32 result bits;
// larger values must be rejected, not wrapped onto a different bit.
func TestFaultBitOutOfRange(t *testing.T) {
	for _, bit := range []string{"32", "40", "300"} {
		code, stderr := sim(t, "-workload", "li", "-insts", "2000", "-reese", "-fault-at", "1000", "-fault-bit", bit)
		if code != 2 {
			t.Errorf("-fault-bit %s: exit status %d, want 2", bit, code)
		}
		if want := "fault bit " + bit + " out of range [0,31]"; !strings.Contains(stderr, want) {
			t.Errorf("-fault-bit %s: stderr %q does not contain %q", bit, stderr, want)
		}
	}
	if code, stderr := sim(t, "-workload", "li", "-insts", "2000", "-reese", "-fault-at", "1000", "-fault-bit", "31"); code != 0 {
		t.Errorf("-fault-bit 31: exit status %d (%s)", code, stderr)
	}
}

// TestRejectsConflictingFlags: flag combinations that would corrupt the
// output or be silently ignored exit with status 2 and name the flag.
func TestRejectsConflictingFlags(t *testing.T) {
	for _, tt := range []struct {
		args []string
		want string
	}{
		{[]string{"-trace", "-", "-json"}, "-trace - and -json"},
		{[]string{"-rsq", "16"}, "-rsq requires -reese"},
		{[]string{"-partial", "4"}, "-partial requires -reese"},
		{[]string{"-reso"}, "-reso requires -reese"},
	} {
		args := append([]string{"-workload", "li", "-insts", "2000"}, tt.args...)
		code, stderr := sim(t, args...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2", tt.args, code)
		}
		if !strings.Contains(stderr, tt.want) {
			t.Errorf("%v: stderr %q does not contain %q", tt.args, stderr, tt.want)
		}
	}
	for _, ok := range [][]string{
		{"-reese", "-rsq", "16", "-partial", "4", "-reso"},
		{"-trace", os.DevNull, "-json"},
	} {
		args := append([]string{"-workload", "li", "-insts", "2000"}, ok...)
		if code, stderr := sim(t, args...); code != 0 {
			t.Errorf("%v: exit status %d (%s)", ok, code, stderr)
		}
	}
}
