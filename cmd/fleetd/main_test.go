package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
)

// buildFleetd compiles the fleetd binary once per test run.
func buildFleetd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fleetd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// journalDir places the drill's journal under FLEETD_TEST_JOURNAL when
// set — CI points it at a workspace path and uploads the segments as a
// failure artifact — and in the test's temp dir otherwise.
func journalDir(t *testing.T) string {
	t.Helper()
	root := os.Getenv("FLEETD_TEST_JOURNAL")
	if root == "" {
		return t.TempDir()
	}
	dir := filepath.Join(root, t.Name())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

// coordProc is one running fleetd process.
type coordProc struct {
	t    *testing.T
	cmd  *exec.Cmd
	base string // http://host:port
	addr string // host:port actually bound
}

// startFleetd launches the binary and waits for its "serving on" line
// to learn the bound address. A restart of a killed coordinator binds
// the same addr again; the bind is retried briefly because the old
// socket may take a beat to die with its process.
func startFleetd(t *testing.T, bin, addr, journal string, extra ...string) *coordProc {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		p, err := tryStartFleetd(t, bin, addr, journal, extra...)
		if err == nil {
			return p
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleetd did not come up on %s: %v", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func tryStartFleetd(t *testing.T, bin, addr, journal string, extra ...string) (*coordProc, error) {
	t.Helper()
	args := append([]string{"-addr", addr, "-journal", journal}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &coordProc{t: t, cmd: cmd}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	served := make(chan string, 1)
	eof := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("fleetd: %s", line)
			if i := strings.Index(line, "serving on "); i >= 0 {
				select {
				case served <- strings.Fields(line[i+len("serving on "):])[0]:
				default:
				}
			}
		}
		close(eof) // pipe closed: the process is gone (or going)
	}()
	select {
	case a := <-served:
		p.addr = a
		p.base = "http://" + a
		return p, nil
	case <-eof:
		err := cmd.Wait()
		return nil, fmt.Errorf("exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("no serving line within 10s")
	}
}

// sigkill is the crash under drill: no drain, no journal seal.
func (p *coordProc) sigkill() {
	p.t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		p.t.Fatal(err)
	}
	p.cmd.Wait()
}

// sigterm drains gracefully and requires exit 0.
func (p *coordProc) sigterm() {
	p.t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		p.t.Fatalf("fleetd exited uncleanly after SIGTERM: %v", err)
	}
}

// countingRunner wraps the experiment runner, recording how many times
// each cell key was actually executed — the replay counter of the
// failover gate — and stretching each cell so the drill has a window
// to kill the coordinator mid-campaign.
type countingRunner struct {
	inner fleet.Runner
	delay time.Duration

	mu     sync.Mutex
	counts map[string]int
}

func newCountingRunner(delay time.Duration) *countingRunner {
	return &countingRunner{inner: experiment.NewFleetRunner(), delay: delay, counts: map[string]int{}}
}

func (r *countingRunner) bump(key string) {
	r.mu.Lock()
	r.counts[key]++
	r.mu.Unlock()
}

// snapshot copies the per-key execution counts.
func (r *countingRunner) snapshot() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

func (r *countingRunner) RunCell(ctx context.Context, t *fleet.CellTask) *fleet.CellResult {
	// Mirrors experiment's cellKey coordinates.
	r.bump(fmt.Sprintf("cell/%s/%s/%d", t.Problem, t.Strategy, t.Rep))
	if r.delay > 0 {
		select {
		case <-time.After(r.delay):
		case <-ctx.Done():
		}
	}
	return r.inner.RunCell(ctx, t)
}

func (r *countingRunner) RunEval(ctx context.Context, t *fleet.EvalTask) *fleet.EvalResult {
	return r.inner.RunEval(ctx, t)
}

// workerPool runs n resident workers against base; they survive
// coordinator restarts by re-registering with jittered backoff.
type workerPool struct {
	cancel context.CancelFunc
	errs   []chan error
}

func startWorkers(t *testing.T, base string, n int, runner fleet.Runner) *workerPool {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pool := &workerPool{cancel: cancel}
	for i := 0; i < n; i++ {
		w := &fleet.Worker{
			Coordinator: base,
			Name:        fmt.Sprintf("fw%d", i),
			Runner:      runner,
			Logf:        t.Logf,
		}
		errCh := make(chan error, 1)
		go func() { errCh <- w.Run(ctx) }()
		pool.errs = append(pool.errs, errCh)
	}
	return pool
}

func (p *workerPool) stop(t *testing.T) {
	t.Helper()
	p.cancel()
	for i, errCh := range p.errs {
		select {
		case err := <-errCh:
			if err != nil {
				t.Errorf("worker %d exit: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("worker %d did not exit", i)
		}
	}
}

// waitCompleted polls the coordinator until at least want tasks have
// completed.
func waitCompleted(t *testing.T, cl *fleet.Client, want int64) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for {
		st, err := cl.SubmitterStats()
		if err == nil && st.Completed >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never reached %d completions (stats: %+v, err: %v)", want, st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func assertCurveSetsEqual(t *testing.T, label string, got, want []*experiment.CurveSet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d curve sets, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g == nil || w == nil {
			t.Fatalf("%s: nil curve set at %d", label, i)
		}
		if g.Benchmark != w.Benchmark || g.Strategy != w.Strategy || g.Reps != w.Reps {
			t.Fatalf("%s: header mismatch: %s/%s reps=%d vs %s/%s reps=%d", label,
				g.Benchmark, g.Strategy, g.Reps, w.Benchmark, w.Strategy, w.Reps)
		}
		if len(g.Samples) != len(w.Samples) {
			t.Fatalf("%s/%s: %d checkpoints, want %d", label, g.Strategy, len(g.Samples), len(w.Samples))
		}
		for j := range w.Samples {
			if g.Samples[j] != w.Samples[j] || g.RMSE[j] != w.RMSE[j] ||
				g.RMSEStd[j] != w.RMSEStd[j] || g.CC[j] != w.CC[j] {
				t.Fatalf("%s/%s: checkpoint %d diverged: (%d,%v,%v,%v) vs (%d,%v,%v,%v)",
					label, g.Strategy, j, g.Samples[j], g.RMSE[j], g.RMSEStd[j], g.CC[j],
					w.Samples[j], w.RMSE[j], w.RMSEStd[j], w.CC[j])
			}
		}
	}
}

func testClient(base string) *fleet.Client {
	cl := &fleet.Client{Base: base}
	cl.Poll = 20 * time.Millisecond
	cl.RetryFor = 60 * time.Second
	return cl
}

// TestFleetdFailover is the coordinator-failover gate: a campaign is
// submitted to a journaled fleetd, the submitter is abandoned
// mid-drain (its crash), then the coordinator is SIGKILLed mid-campaign
// (its crash) and restarted on the same address. The resident workers
// re-register on their own, a fresh submitter re-derives the same
// deterministic job ID and reattaches, and the finished curves must be
// bit-identical to the local drain (experiment.RunAll, which
// experiment's TestCampaignMatchesSequential pins to the sequential
// oracle) for every strategy — with the
// replay counter proving that no cell completed before the crash was
// ever executed again.
func TestFleetdFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("failover drill; run without -short")
	}
	baseline := runtime.NumGoroutine()
	bin := buildFleetd(t)
	journal := journalDir(t)

	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	sc := experiment.Smoke()
	names := core.StrategyNames()
	camp := experiment.Campaign{
		Items:      []experiment.CampaignItem{{Problem: p, Scale: sc}},
		Strategies: names,
		Seed:       77,
	}
	totalCells := int64(len(names) * sc.Reps)
	local, err := experiment.RunAll(context.Background(), p, names, sc, 77)
	if err != nil {
		t.Fatal(err)
	}

	d1 := startFleetd(t, bin, "127.0.0.1:0", journal, "-lease", "2s")
	runner := newCountingRunner(150 * time.Millisecond)
	workers := startWorkers(t, d1.base, 3, runner)

	// Submitter incarnation 1: drives the job until we "crash" it.
	subCtx, subCancel := context.WithCancel(context.Background())
	subErr := make(chan error, 1)
	go func() {
		_, err := experiment.RunCampaignFleet(subCtx, camp, testClient(d1.base))
		subErr <- err
	}()

	// Let the fleet finish a few cells, then kill the submitter and
	// SIGKILL the coordinator — no drain, no journal seal.
	waitCompleted(t, testClient(d1.base), 3)
	subCancel()
	if err := <-subErr; err == nil {
		t.Fatal("abandoned submitter returned no error")
	}
	d1.sigkill()
	atKill := runner.snapshot()

	// Restart on the same address; the workers re-register themselves.
	d2 := startFleetd(t, bin, d1.addr, journal, "-lease", "2s")
	completed, requeued, err := testClient(d2.base).Recovered()
	if err != nil {
		t.Fatalf("recovered: %v", err)
	}
	t.Logf("recovered: %d completed, %d re-queued", len(completed), len(requeued))
	if len(completed) < 3 {
		t.Fatalf("journal recovered %d completed cells, want >= 3", len(completed))
	}

	// Submitter incarnation 2: same campaign, same derived job ID —
	// reattaches and collects everything, including pre-crash cells.
	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer wcancel()
	res, err := experiment.RunCampaignFleet(wctx, camp, testClient(d2.base))
	if err != nil {
		t.Fatalf("reattached drain: %v", err)
	}
	assertCurveSetsEqual(t, "failover", res.Curves[p.Name()], local)

	// Replay counter: a cell whose completion survived in the journal
	// must never have been executed again after the restart.
	final := runner.snapshot()
	for _, key := range completed {
		if final[key] != atKill[key] {
			t.Errorf("completed cell %s re-executed after failover: %d -> %d executions",
				key, atKill[key], final[key])
		}
	}

	st, err := testClient(d2.base).SubmitterStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RecoveredCompleted < 3 || st.RecoveredTasks != totalCells {
		t.Errorf("recovery counters: %+v, want %d tasks with >= 3 completed", st, totalCells)
	}
	if st.Completed != totalCells {
		t.Errorf("Completed = %d, want %d", st.Completed, totalCells)
	}

	workers.stop(t)
	d2.sigterm()

	// Leak check: client pollers and workers own no goroutines once
	// drained.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= baseline+8 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestFleetdSubmitterReattach drills the submitter-only crash: the
// coordinator stays up throughout, the first submitter abandons its
// wait mid-campaign, and a second one reattaches by the derived job ID
// and collects bit-identical curves — every cell executed exactly
// once.
func TestFleetdSubmitterReattach(t *testing.T) {
	if testing.Short() {
		t.Skip("failover drill; run without -short")
	}
	bin := buildFleetd(t)
	journal := journalDir(t)

	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	sc := experiment.Smoke()
	names := []string{"PWU", "Random"}
	camp := experiment.Campaign{
		Items:      []experiment.CampaignItem{{Problem: p, Scale: sc}},
		Strategies: names,
		Seed:       123,
	}
	local, err := experiment.RunAll(context.Background(), p, names, sc, 123)
	if err != nil {
		t.Fatal(err)
	}

	d := startFleetd(t, bin, "127.0.0.1:0", journal)
	runner := newCountingRunner(100 * time.Millisecond)
	workers := startWorkers(t, d.base, 2, runner)

	subCtx, subCancel := context.WithCancel(context.Background())
	subErr := make(chan error, 1)
	go func() {
		_, err := experiment.RunCampaignFleet(subCtx, camp, testClient(d.base))
		subErr <- err
	}()
	waitCompleted(t, testClient(d.base), 1)
	subCancel()
	if err := <-subErr; err == nil {
		t.Fatal("abandoned submitter returned no error")
	}

	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer wcancel()
	res, err := experiment.RunCampaignFleet(wctx, camp, testClient(d.base))
	if err != nil {
		t.Fatalf("reattached drain: %v", err)
	}
	assertCurveSetsEqual(t, "reattach", res.Curves[p.Name()], local)

	// The coordinator never died and no lease bounced, so abandoning
	// the waiter must not have cost a single re-execution.
	for key, n := range runner.snapshot() {
		if n != 1 {
			t.Errorf("cell %s executed %d times, want exactly 1", key, n)
		}
	}

	workers.stop(t)
	d.sigterm()
}

// TestFleetdJournalSurvivesGracefulRestart: SIGTERM seals the journal;
// a reboot adopts the queued work without loss.
func TestFleetdJournalSurvivesGracefulRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("failover drill; run without -short")
	}
	bin := buildFleetd(t)
	journal := journalDir(t)

	d1 := startFleetd(t, bin, "127.0.0.1:0", journal)
	cl := testClient(d1.base)
	specs := []fleet.TaskSpec{
		{Key: "cell/atax/pwu/0", Cell: &fleet.CellTask{Problem: "atax", Strategy: "PWU", Seed: 1}},
	}
	if _, attached, err := cl.SubmitTasks("job-graceful", specs); err != nil || attached {
		t.Fatalf("submit: attached=%v err=%v", attached, err)
	}
	d1.sigterm()

	d2 := startFleetd(t, bin, d1.addr, journal)
	st, err := testClient(d2.base).SubmitterStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RecoveredTasks != 1 || st.Queued != 1 {
		t.Fatalf("after graceful restart: %+v, want 1 recovered queued task", st)
	}
	_, attached, err := testClient(d2.base).SubmitTasks("job-graceful", specs)
	if err != nil || !attached {
		t.Fatalf("reattach after graceful restart: attached=%v err=%v", attached, err)
	}
	d2.sigterm()
}
