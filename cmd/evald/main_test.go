package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/fleet"
)

// buildEvald compiles the worker binary once per test run.
func buildEvald(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "evald")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// smokeSpec is the wire form of experiment.Smoke() — the scale every
// e2e cell runs at.
func smokeSpec() fleet.ScaleSpec {
	sc := experiment.Smoke()
	return fleet.ScaleSpec{
		PoolSize: sc.PoolSize, TestSize: sc.TestSize,
		NInit: sc.NInit, NBatch: sc.NBatch, NMax: sc.NMax,
		Reps: sc.Reps, Alpha: sc.Alpha, EvalEvery: sc.EvalEvery,
		Forest: sc.Forest, WarmUpdate: sc.WarmUpdate,
		Failure: sc.Failure, Guard: sc.Guard, Chaos: sc.Chaos,
	}
}

// TestEvaldEndToEnd drives the real binary against an in-process
// coordinator: evald registers, leases and completes campaign cells,
// then drains cleanly on SIGTERM with exit code 0 — the cli contract
// a fleet supervisor (systemd, a batch scheduler) relies on.
func TestEvaldEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a binary")
	}
	bin := buildEvald(t)

	coord := fleet.New(fleet.Config{
		LeaseTTL:  5 * time.Second,
		Heartbeat: 500 * time.Millisecond,
		Poll:      10 * time.Millisecond,
		Logf:      t.Logf,
	})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	spec := smokeSpec()
	var specs []fleet.TaskSpec
	for rep := 0; rep < 3; rep++ {
		specs = append(specs, fleet.TaskSpec{
			Key: "cell/atax/Random/" + string(rune('0'+rep)),
			Cell: &fleet.CellTask{
				Problem: "atax", Strategy: "Random",
				Rep: rep, Seed: 42, Scale: spec,
			},
		})
	}
	job, _, err := coord.SubmitTasks("", specs)
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "-coordinator", srv.URL, "-name", "e2e-worker", "-drain-timeout", "10s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("job: %v", err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results, want %d", len(results), len(specs))
	}
	for _, tr := range results {
		if tr.Failed != "" {
			t.Fatalf("task %s failed: %s", tr.Key, tr.Failed)
		}
		if tr.Worker == "" {
			t.Errorf("task %s has no completing worker", tr.Key)
		}
		var cr fleet.CellResult
		if err := json.Unmarshal(tr.Payload, &cr); err != nil {
			t.Fatalf("task %s payload: %v", tr.Key, err)
		}
		if cr.ErrKind != "" || len(cr.RMSE) == 0 {
			t.Fatalf("task %s: errkind %q, %d curve points", tr.Key, cr.ErrKind, len(cr.RMSE))
		}
	}
	if st := coord.Stats(); st.Completed != int64(len(specs)) {
		t.Errorf("coordinator completed %d, want %d", st.Completed, len(specs))
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Read stderr to EOF before Wait: Wait closes the pipe, and a line
	// the scanner has not read by then is lost.
	var drained bool
	for line := range lines {
		if strings.Contains(line, "drained cleanly") {
			drained = true
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("evald exited uncleanly after SIGTERM: %v", err)
	}
	if !drained {
		t.Error("evald never logged a clean drain")
	}
	if st := coord.Stats(); st.Workers != 0 {
		t.Errorf("worker still registered after drain: %d live", st.Workers)
	}
}

// TestEvaldFlagValidation pins the startup contract: a bad flag fails
// fast with exit code 1 and a message naming the flag, before any
// coordinator traffic.
func TestEvaldFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a binary")
	}
	bin := buildEvald(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing coordinator", nil, "-coordinator"},
		{"zero slots", []string{"-coordinator", "localhost:9090", "-slots", "0"}, "-slots"},
		{"negative drain", []string{"-coordinator", "localhost:9090", "-drain-timeout", "-1s"}, "-drain-timeout"},
		{"bad chaos grammar", []string{"-coordinator", "localhost:9090", "-chaos", "crash=lots"}, "chaos"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want exit error, got %v\n%s", err, out)
			}
			if code := ee.ExitCode(); code != 1 {
				t.Errorf("exit code %d, want 1\n%s", code, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, out)
			}
		})
	}
}
