package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildTune compiles the binary once per test run.
func buildTune(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tune")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building tune: %v\n%s", err, out)
	}
	return bin
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("not an exit error: %v", err)
	}
	return ee.ExitCode()
}

// TestExitCodes pins the binary's exit-code contract: 1 for failures,
// 130 for an interrupt, 0 for a clean chaotic run that the retry policy
// fully absorbs.
func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real binary")
	}
	bin := buildTune(t)

	// Unknown benchmark: plain failure.
	if code := exitCode(t, exec.Command(bin, "-bench", "nosuchkernel").Run()); code != 1 {
		t.Fatalf("unknown benchmark exited %d, want 1", code)
	}

	// Malformed chaos scenario: plain failure, grammar never reaches a run.
	if code := exitCode(t, exec.Command(bin, "-chaos", "bogus=1").Run()); code != 1 {
		t.Fatalf("bad -chaos exited %d, want 1", code)
	}

	// Malformed fleet target: plain failure before any measurement.
	if code := exitCode(t, exec.Command(bin, "-fleet", "serve=nonsense").Run()); code != 1 {
		t.Fatalf("bad -fleet exited %d, want 1", code)
	}

	// A transient-error scenario fully covered by retries completes.
	cmd := exec.Command(bin, "-bench", "atax", "-budget", "30", "-search", "500",
		"-verify", "2", "-chaos", "err=0.2,seed=3", "-retries", "15")
	out, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != 0 {
		t.Fatalf("chaotic tune exited %d, want 0\n%s", code, out)
	}

	// SIGINT mid-run with a checkpoint: exit 130 and a resume hint. The
	// latency scenario keeps the model phase alive long enough for the
	// signal to land mid-measurement.
	ckpt := filepath.Join(t.TempDir(), "tune.ckpt")
	cmd = exec.Command(bin, "-bench", "atax", "-budget", "100",
		"-checkpoint", ckpt, "-every", "1", "-chaos", "lat=1:100ms,seed=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1500 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	if code := exitCode(t, err); code != 130 {
		t.Fatalf("interrupted tune exited %d, want 130\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "resume") {
		t.Fatalf("interrupt left no resume hint: %s", stderr.String())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("interrupt left no checkpoint: %v", err)
	}
}
