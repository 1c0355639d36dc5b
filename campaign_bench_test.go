// bench-campaign recording: the machine-readable trajectory
// BENCH_campaign.json.
//
// The campaign benchmarks (bench_test.go) drain the same Fig. 2-shaped
// grid — (kernels × 6 strategies × reps) smoke-scale cells — through
// two engines: the in-process work-stealing scheduler (key "local") and
// a fleet coordinator serving in-process network workers (key "fleet").
// Both record one entry per run (bench_record_test.go): bench
// "CampaignFig2", metric "ms_per_cell", params problems (the grid's
// kernel count, which sizes the workload), cells, wall_ms, utilization,
// steals and requeues. The trajectory answers, per commit,
// what a campaign cell costs and what the fleet transport adds on top
// of the local drain: `report -bench` puts the two per-core values in
// adjacent rows.
//
// CAMPAIGN_BENCH_PROBLEMS=n shrinks the grid to the first n kernels
// (default 4); the smoke gate uses 2.
package repro_test

import (
	"context"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/report"
)

// campaignBenchProblems returns the benchmark grid's kernel count:
// CAMPAIGN_BENCH_PROBLEMS from the environment, defaulting to 4.
func campaignBenchProblems(b *testing.B) int {
	if s := os.Getenv("CAMPAIGN_BENCH_PROBLEMS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			b.Fatalf("CAMPAIGN_BENCH_PROBLEMS=%q: want a positive integer", s)
		}
		return n
	}
	return 4
}

// reportCampaign attaches the scheduler metrics to the benchmark output
// and records the trajectory entry for the run. requeues is the fleet
// coordinator's re-queue count over the run (0 for the local drain).
func reportCampaign(b *testing.B, mode string, problems, cells int, st campaign.Stats, requeues int64) {
	wallMs := float64(b.Elapsed().Nanoseconds()) / 1e6 / float64(b.N)
	b.ReportMetric(st.Utilization, "utilization")
	b.ReportMetric(float64(st.Steals), "steals")
	b.ReportMetric(wallMs/float64(cells), "ms/cell")
	recordBench(b, report.BenchEntry{
		Bench:   "CampaignFig2",
		Key:     mode,
		Metric:  "ms_per_cell",
		Value:   wallMs / float64(cells),
		Workers: st.Workers,
		Params: map[string]float64{
			"problems":    float64(problems),
			"cells":       float64(cells),
			"wall_ms":     wallMs,
			"utilization": st.Utilization,
			"steals":      float64(st.Steals), // fleet mode: extra lease attempts
			"requeues":    float64(requeues),  // fleet coordinator re-queues; 0 in local mode
		},
	})
}

// BenchmarkCampaignFig2Fleet measures the same Fig. 2-shaped grid as
// BenchmarkCampaignFig2, drained through a fleet coordinator by two
// in-process network workers — the full lease/heartbeat/checksummed-
// result transport, minus only real network latency. The ms/cell gap
// against the local entry is the fleet protocol's overhead; the curves
// themselves are bit-identical either way (the fleet-equivalence gate).
func BenchmarkCampaignFig2Fleet(b *testing.B) {
	sc := figScale()
	problems := campaignFig2Problems(b)

	coord := fleet.New(fleet.Config{
		LeaseTTL:  30 * time.Second,
		Heartbeat: time.Second,
		Poll:      2 * time.Millisecond,
	})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const nWorkers = 2
	errs := make(chan error, nWorkers)
	for i := 0; i < nWorkers; i++ {
		w := &fleet.Worker{
			Coordinator: srv.URL,
			Name:        "bench-" + strconv.Itoa(i),
			Runner:      experiment.NewFleetRunner(),
		}
		go func() { errs <- w.Run(ctx) }()
	}

	var st campaign.Stats
	cells := 0
	requeues := coord.Stats().Requeues
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items := make([]experiment.CampaignItem, len(problems))
		for j, p := range problems {
			items[j] = experiment.CampaignItem{Problem: p, Scale: sc}
		}
		res, err := experiment.RunCampaignFleet(ctx, experiment.Campaign{
			Items: items, Strategies: core.StrategyNames(), Seed: 42,
		}, coord)
		if err != nil {
			b.Fatal(err)
		}
		st = res.Scheduler
		cells = res.Scheduler.Tasks
	}
	b.StopTimer()
	reportCampaign(b, "fleet", len(problems), cells, st, coord.Stats().Requeues-requeues)

	cancel()
	for i := 0; i < nWorkers; i++ {
		select {
		case err := <-errs:
			if err != nil {
				b.Fatalf("worker exit: %v", err)
			}
		case <-time.After(30 * time.Second):
			b.Fatal("worker did not drain")
		}
	}
}
