// Benchmark trajectories: BENCH_pool.json, BENCH_train.json,
// BENCH_campaign.json and BENCH_checkpoint.json, JSON arrays of
// report.BenchEntry with the newest entry last, rendered by
// `go run ./cmd/report -bench FILE`. The pool-scoring
// (pool_bench_test.go), training (train_bench_test.go), campaign-drain
// (campaign_bench_test.go) and session-checkpoint
// (checkpoint_bench_test.go) benchmarks each record one entry per
// (bench, key) per run through recordBench.
//
// Environment hooks, wired up by the Makefile:
//
//	BENCH_JSON=path      append the run's entries to the JSON array at
//	                     path (created if missing) — `make bench-pool`,
//	                     `make bench-train` and `make bench-campaign`
//	                     point it at the committed trajectory.
//	BENCH_BASELINE=path  regression guard: fail the benchmark if its
//	                     per-core value (value × workers) exceeds twice
//	                     that of the newest entry at path of the same
//	                     workload — bench, key and workload params such
//	                     as problems and pool_size, report.SameWorkload —
//	                     (the 2× margin tolerates CI-runner noise): the
//	                     bench-*-smoke gates of `make check`, each
//	                     guarded by a committed entry of its own size.
package repro_test

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/report"
)

// gitSHA best-efforts the current commit for the JSON record, with a
// "+dirty" marker when the working tree differs from it. It is computed
// once per process, at the first record — before this process has
// written any BENCH_*.json entry of its own, so a run on a clean
// checkout labels every entry clean.
var gitSHA = sync.OnceValue(func() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		sha += "+dirty"
	}
	return sha
})

// benchEntryIdx tracks, per (bench, key), the BENCH_JSON index this
// process already wrote: the bench harness re-invokes each benchmark
// with growing b.N until -benchtime is satisfied, and only the final
// (longest, most accurate) invocation should survive as the run's
// recorded entry.
var benchEntryIdx = map[[2]string]int{}

// recordBench stamps e with the commit and the time, appends it to
// $BENCH_JSON (if set) and enforces the $BENCH_BASELINE regression guard
// (if set).
func recordBench(b *testing.B, e report.BenchEntry) {
	e.GitSHA = gitSHA()
	e.Timestamp = time.Now().UTC().Format(time.RFC3339)
	id := [2]string{e.Bench, e.Key}
	if path := os.Getenv("BENCH_JSON"); path != "" {
		entries, err := report.ReadBench(path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			b.Fatalf("BENCH_JSON: %v", err)
		}
		if idx, ok := benchEntryIdx[id]; ok && idx < len(entries) {
			entries[idx] = e
		} else {
			benchEntryIdx[id] = len(entries)
			entries = append(entries, e)
		}
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatalf("BENCH_JSON: %v", err)
		}
	}
	if path := os.Getenv("BENCH_BASELINE"); path != "" {
		entries, err := report.ReadBench(path)
		if err != nil {
			b.Fatalf("BENCH_BASELINE: %v", err)
		}
		// Per-core values (value × workers) compare a parallel benchmark
		// across hosts of different core counts; the pool scan, which
		// scales sublinearly, is pinned to -cpu 1 in both its recording
		// and its smoke, so its comparison is like for like. With no
		// matching entry there is nothing to guard against.
		var base *report.BenchEntry
		for i := range entries { // the newest entry of the same workload wins
			if entries[i].SameWorkload(e) {
				base = &entries[i]
			}
		}
		if base == nil {
			b.Logf("BENCH_BASELINE: no %s %q entry of this workload; guard skipped", e.Bench, e.Key)
		} else if e.PerCore() > 2*base.PerCore() {
			b.Fatalf("%s %q regression: per-core %s %.1f, recorded baseline %.1f at %s (limit 2x)",
				e.Bench, e.Key, e.Metric, e.PerCore(), base.PerCore(), base.GitSHA)
		}
	}
}
