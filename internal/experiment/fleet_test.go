package experiment

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/rng"
	"repro/internal/space"
)

// fleetTestConfig shrinks the lease timings so fault recovery runs in
// milliseconds instead of the production seconds.
func fleetTestConfig() fleet.Config {
	return fleet.Config{
		LeaseTTL:    250 * time.Millisecond,
		Heartbeat:   50 * time.Millisecond,
		Poll:        5 * time.Millisecond,
		MaxAttempts: 12,
	}
}

// fleetRig is an in-process fleet: a coordinator behind a real HTTP
// server plus n workers (optionally chaos-injected) draining it.
type fleetRig struct {
	coord  *fleet.Coordinator
	srv    *httptest.Server
	cancel context.CancelFunc
	errs   []chan error
	ws     []*fleet.Worker
}

func startFleet(t *testing.T, cfg fleet.Config, n int, chaosFor func(i int) fleet.WorkerChaos) *fleetRig {
	t.Helper()
	coord := fleet.New(cfg)
	srv := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	rig := &fleetRig{coord: coord, srv: srv, cancel: cancel}
	for i := 0; i < n; i++ {
		w := &fleet.Worker{
			Coordinator: srv.URL,
			Name:        fmt.Sprintf("tw%d", i),
			Runner:      NewFleetRunner(),
			Logf:        t.Logf,
		}
		if chaosFor != nil {
			w.Chaos = chaosFor(i)
		}
		errCh := make(chan error, 1)
		go func() { errCh <- w.Run(ctx) }()
		rig.errs = append(rig.errs, errCh)
		rig.ws = append(rig.ws, w)
	}
	return rig
}

func (r *fleetRig) stop(t *testing.T) {
	t.Helper()
	r.cancel()
	for i, errCh := range r.errs {
		select {
		case err := <-errCh:
			// Chaos-crashed workers exit ErrKilled; anything else must
			// drain cleanly.
			if err != nil && !errors.Is(err, fleet.ErrKilled) {
				t.Errorf("worker %d exit: %v", i, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("worker %d did not exit", i)
		}
	}
	r.srv.Close()
	r.coord.Close()
}

// runFleetCampaign drains one (problem × strategies) grid through rig's
// coordinator and returns the curve sets in strategy order.
func runFleetCampaign(t *testing.T, rig *fleetRig, p bench.Problem, names []string, sc Scale, seed uint64) []*CurveSet {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	res, err := RunCampaignFleet(ctx, Campaign{
		Items:      []CampaignItem{{Problem: p, Scale: sc}},
		Strategies: names,
		Seed:       seed,
	}, rig.coord)
	if err != nil {
		t.Fatalf("RunCampaignFleet: %v", err)
	}
	return res.Curves[p.Name()]
}

// TestFleetCampaignMatchesLocal is the fleet-equivalence gate: for
// every strategy, a campaign drained through a coordinator and N remote
// workers must reproduce runAllSequential bit for bit, for N ∈ {1, 2, 4}
// — the distributed analogue of TestCampaignWorkerInvariance.
func TestFleetCampaignMatchesLocal(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	sc := Smoke()
	names := core.StrategyNames()
	seq, err := runAllSequential(context.Background(), p, names, sc, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		rig := startFleet(t, fleetTestConfig(), n, nil)
		got := runFleetCampaign(t, rig, p, names, sc, 99)
		rig.stop(t)
		if len(got) != len(seq) {
			t.Fatalf("workers=%d: %d curve sets, want %d", n, len(got), len(seq))
		}
		for i := range seq {
			assertCurvesEqual(t, got[i], seq[i])
		}
	}
}

// TestFleetChaosEquivalence drains the same grid through a fleet whose
// workers hang past the lease TTL, panic, and corrupt payloads — plus
// one clean worker so progress is guaranteed — and requires the curves
// to stay bit-identical to the clean sequential run: every fault is
// absorbed by re-leases, checksum rejection and duplicate-drop, never
// by altering a result.
func TestFleetChaosEquivalence(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	sc := Smoke()
	names := []string{"Random", "PWU", "BRS"}
	seq, err := runAllSequential(context.Background(), p, names, sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	rig := startFleet(t, fleetTestConfig(), 3, func(i int) fleet.WorkerChaos {
		switch i {
		case 0:
			return fleet.WorkerChaos{Seed: 11, HangRate: 0.15, HangFor: 600 * time.Millisecond, PanicRate: 0.15}
		case 1:
			return fleet.WorkerChaos{Seed: 12, CorruptRate: 0.3, PanicRate: 0.1}
		default:
			return fleet.WorkerChaos{} // the clean one
		}
	})
	got := runFleetCampaign(t, rig, p, names, sc, 7)
	rig.stop(t)
	for i := range seq {
		assertCurvesEqual(t, got[i], seq[i])
	}
}

// TestFleetKilledMidLeaseEquivalence kills a worker on its first lease
// — the abrupt crash lease expiry exists to absorb — and requires the
// surviving worker to deliver bit-identical curves, with the bounce
// visible in the coordinator's counters.
func TestFleetKilledMidLeaseEquivalence(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	sc := Smoke()
	names := []string{"PWU", "Random"}
	seq, err := runAllSequential(context.Background(), p, names, sc, 21)
	if err != nil {
		t.Fatal(err)
	}

	rig := startFleet(t, fleetTestConfig(), 2, nil)
	var once sync.Once
	victim := rig.ws[0]
	victim.OnLease = func(key string) {
		once.Do(func() {
			victim.Kill()
			time.Sleep(50 * time.Millisecond) // let the kill land before the task reports
		})
	}
	got := runFleetCampaign(t, rig, p, names, sc, 21)
	st := rig.coord.Stats()
	rig.stop(t)
	for i := range seq {
		assertCurvesEqual(t, got[i], seq[i])
	}
	if st.Expired == 0 || st.Requeues == 0 {
		t.Errorf("kill left no trace in the counters: %+v", st)
	}
}

// TestFleetSchedulerStats checks the drain's telemetry mapping.
func TestFleetSchedulerStats(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	sc := Smoke()
	names := []string{"Random"}
	rig := startFleet(t, fleetTestConfig(), 2, nil)
	defer rig.stop(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := RunCampaignFleet(ctx, Campaign{
		Items:      []CampaignItem{{Problem: p, Scale: sc}},
		Strategies: names,
		Seed:       5,
	}, rig.coord)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduler.Tasks != sc.Reps {
		t.Errorf("Tasks = %d, want %d", res.Scheduler.Tasks, sc.Reps)
	}
	if res.Scheduler.Workers < 1 || res.Scheduler.Workers > 2 {
		t.Errorf("Workers = %d", res.Scheduler.Workers)
	}
	if res.Scheduler.Wall <= 0 {
		t.Errorf("Wall = %v", res.Scheduler.Wall)
	}
}

// TestFleetRejectsCustomFitter: a function-valued Fitter cannot travel.
func TestFleetRejectsCustomFitter(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	sc := Smoke()
	sc.Fitter = func(X [][]float64, y []float64, features []space.Feature, r *rng.RNG) (core.Model, error) {
		return nil, nil
	}
	coord := fleet.New(fleetTestConfig())
	defer coord.Close()
	_, err = RunCampaignFleet(context.Background(), Campaign{
		Items:      []CampaignItem{{Problem: p, Scale: sc}},
		Strategies: []string{"Random"},
		Seed:       1,
	}, coord)
	if err == nil {
		t.Fatal("campaign with custom Fitter accepted")
	}
}

// TestFleetSoakMixedFaults is the fleet-soak gate: a small fleet under
// every fault kind at once — crashes included, with a supervisor
// restarting dead workers like an init system would — must drain a
// multi-strategy campaign to bit-identical curves. Run under -race
// (make fleet-soak does); a goroutine-leak check closes it out.
func TestFleetSoakMixedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; run without -short")
	}
	baseline := runtime.NumGoroutine()
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	sc := Smoke()
	names := []string{"Random", "PWU", "MaxU", "BRS"}
	seq, err := runAllSequential(context.Background(), p, names, sc, 33)
	if err != nil {
		t.Fatal(err)
	}

	cfg := fleetTestConfig()
	cfg.MaxAttempts = 20
	coord := fleet.New(cfg)
	srv := httptest.NewServer(coord.Handler())

	// Supervisor: keep 3 workers alive. Two are chaos-ridden (each
	// incarnation reseeded so restarts do not replay the same faults),
	// one is clean so the drain always makes progress.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var incarnation int64
	var mu sync.Mutex
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				incarnation++
				seed := uint64(incarnation)
				mu.Unlock()
				w := &fleet.Worker{
					Coordinator: srv.URL,
					Name:        fmt.Sprintf("soak%d-%d", slot, seed),
					Runner:      NewFleetRunner(),
					Logf:        t.Logf,
				}
				if slot != 2 {
					w.Chaos = fleet.WorkerChaos{
						Seed:        seed,
						CrashRate:   0.05,
						HangRate:    0.05,
						HangFor:     600 * time.Millisecond,
						PanicRate:   0.1,
						CorruptRate: 0.1,
					}
				}
				err := w.Run(ctx)
				if err == nil {
					return // graceful drain: supervision over
				}
				if !errors.Is(err, fleet.ErrKilled) {
					t.Errorf("worker %d: %v", slot, err)
					return
				}
				// Crashed: restart after a beat, like an init system.
				time.Sleep(20 * time.Millisecond)
			}
		}(i)
	}

	wctx, wcancel := context.WithTimeout(context.Background(), 4*time.Minute)
	res, err := RunCampaignFleet(wctx, Campaign{
		Items:      []CampaignItem{{Problem: p, Scale: sc}},
		Strategies: names,
		Seed:       33,
	}, coord)
	wcancel()
	if err != nil {
		t.Fatalf("soak drain: %v", err)
	}
	got := res.Curves[p.Name()]
	for i := range seq {
		assertCurvesEqual(t, got[i], seq[i])
	}
	st := coord.Stats()
	t.Logf("soak: %d registrations, %d requeues, %d expired, %d duplicates, %d corrupt",
		st.Registered, st.Requeues, st.Expired, st.Duplicates, st.Corrupt)

	cancel()
	wg.Wait()
	srv.Close()
	coord.Close()

	// Leak check: workers, coordinator and server own no goroutines
	// once drained and closed.
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
