// bench-campaign recording: the machine-readable trajectory
// BENCH_campaign.json, in the style of BENCH_pool.json.
//
// The campaign benchmarks (bench_test.go) drain the same Fig. 2-shaped
// grid — (kernels × 6 strategies × reps) smoke-scale cells — through
// two engines: the in-process work-stealing scheduler ("local") and a
// fleet coordinator serving in-process network workers ("fleet"). Both
// record one entry per run, so the trajectory answers, per commit, what
// a campaign cell costs and what the fleet transport adds on top of the
// local drain.
//
// Environment hooks, wired up by the Makefile:
//
//	BENCH_CAMPAIGN_JSON=path  append a machine-readable result entry
//	                          (see benchCampaignEntry) to the JSON array
//	                          at path — the trajectory BENCH_campaign.json,
//	                          rendered by `report -bench-campaign`.
//	CAMPAIGN_BENCH_BASELINE=path  regression guard: fail the benchmark
//	                          if per-core ms/cell (ms × workers) exceeds
//	                          twice the most recent recorded entry for
//	                          the same mode (the 2× margin tolerates
//	                          CI-runner noise).
//	CAMPAIGN_BENCH_PROBLEMS=n  shrink the grid to the first n kernels
//	                          (default 4) — the smoke gate uses 2.
package repro_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
)

// benchCampaignEntry is one recorded bench-campaign measurement — the
// schema of BENCH_campaign.json (an array, newest entry last).
type benchCampaignEntry struct {
	Bench       string  `json:"bench"`
	Mode        string  `json:"mode"` // "local" | "fleet"
	MsPerCell   float64 `json:"ms_per_cell"`
	WallMs      float64 `json:"wall_ms"`
	Cells       int     `json:"cells"`
	Workers     int     `json:"workers"`
	Utilization float64 `json:"utilization"`
	Steals      int     `json:"steals"`   // scheduler steals (fleet mode: extra lease attempts)
	Requeues    int64   `json:"requeues"` // fleet coordinator re-queues; 0 in local mode
	GitSHA      string  `json:"git_sha"`
	Timestamp   string  `json:"timestamp"`
}

// campaignEntryIdx tracks, per mode, the BENCH_CAMPAIGN_JSON index this
// process already wrote, so only the final (longest, most accurate)
// harness invocation survives as the run's recorded entry.
var campaignEntryIdx = map[string]int{}

// recordCampaignBench appends the entry to $BENCH_CAMPAIGN_JSON (if
// set) and enforces the $CAMPAIGN_BENCH_BASELINE regression guard (if
// set).
func recordCampaignBench(b *testing.B, e benchCampaignEntry) {
	if path := os.Getenv("BENCH_CAMPAIGN_JSON"); path != "" {
		var entries []benchCampaignEntry
		if data, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(data, &entries); err != nil {
				b.Fatalf("BENCH_CAMPAIGN_JSON %s: existing file is not a bench entry array: %v", path, err)
			}
		}
		if idx, ok := campaignEntryIdx[e.Mode]; ok && idx < len(entries) {
			entries[idx] = e
		} else {
			campaignEntryIdx[e.Mode] = len(entries)
			entries = append(entries, e)
		}
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatalf("BENCH_CAMPAIGN_JSON: %v", err)
		}
	}
	if path := os.Getenv("CAMPAIGN_BENCH_BASELINE"); path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			b.Fatalf("CAMPAIGN_BENCH_BASELINE: %v", err)
		}
		var entries []benchCampaignEntry
		if err := json.Unmarshal(data, &entries); err != nil {
			b.Fatalf("CAMPAIGN_BENCH_BASELINE %s: %v", path, err)
		}
		// Per-core ms/cell (ms × workers) is the machine-portable cost:
		// the drain parallelizes near-linearly, so wall ms/cell scales
		// inversely with the worker count and a baseline recorded on an
		// n-core box would trip on any smaller runner. The cell scale is
		// pinned (experiment.Smoke), so entries compare across commits.
		perCore := e.MsPerCell * float64(e.Workers)
		baseline := 0.0
		for _, base := range entries { // newest matching entry wins
			if base.Mode == e.Mode {
				baseline = base.MsPerCell * float64(base.Workers)
			}
		}
		if baseline > 0 && perCore > 2*baseline {
			b.Fatalf("campaign regression: %.1f per-core ms/cell in %s mode, recorded baseline %.1f (limit 2x)",
				perCore, e.Mode, baseline)
		}
	}
}

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
func reportCampaign(b *testing.B, mode string, cells int, st campaign.Stats, requeues int64) {
	wallMs := float64(b.Elapsed().Nanoseconds()) / 1e6 / float64(b.N)
	b.ReportMetric(st.Utilization, "utilization")
	b.ReportMetric(float64(st.Steals), "steals")
	b.ReportMetric(wallMs/float64(cells), "ms/cell")
	recordCampaignBench(b, benchCampaignEntry{
		Bench:       "CampaignFig2",
		Mode:        mode,
		MsPerCell:   wallMs / float64(cells),
		WallMs:      wallMs,
		Cells:       cells,
		Workers:     st.Workers,
		Utilization: st.Utilization,
		Steals:      st.Steals,
		Requeues:    requeues,
		GitSHA:      gitSHA(),
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
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
	reportCampaign(b, "fleet", cells, st, coord.Stats().Requeues-requeues)

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
