// bench-pool: throughput of the streaming sharded scoring pipeline.
//
// BenchmarkPoolStreamPWU scores a pool of POOL_BENCH_N uniform candidates
// (default 200k; set POOL_BENCH_N=10000000 for the 10^7-config
// demonstration) with a paper-scale 64-tree forest and selects the PWU
// top-16 through core.PWU.SelectStream — the exact hot path of a
// session's selection step (floor-pruned top-k), on the forest's batch
// kernel (a
// branchless 8-lane walk over order-preserving uint64 keys of the
// float64 features, bit-identical to the scalar walk). Entries are
// recorded under kernel "exact"; BENCH_pool.json's older entries of the
// removed float32 quant kernel are history and never serve as a
// baseline. The pool is never materialized: peak memory is
// O(workers x shard) regardless of POOL_BENCH_N, which -benchmem makes
// visible (B/op stays flat as the pool grows).
//
// The reported ns/candidate metric is the honest per-candidate cost of
// generate + encode + 64-tree score + floor test (and, for the few
// candidates the floor cannot exclude, PWU score + heap push); total
// pool scoring time is pool_size x ns/candidate. The Makefile runs it at
// -cpu 1, so recorded entries are one-core costs: the scan is
// embarrassingly parallel across shards, but how well it scales depends
// on the host (on a 2-vCPU box it is far from linear), so only entries
// at the same worker count are comparable.
//
// Environment hooks, wired up by the Makefile:
//
//	BENCH_POOL_JSON=path    append a machine-readable result entry
//	                        (see benchPoolEntry) to the JSON array at
//	                        path — the benchmark trajectory BENCH_pool.json.
//	POOL_BENCH_BASELINE=path  regression guard: fail the benchmark if
//	                        ns/candidate exceeds twice the most recent
//	                        recorded entry for the same kernel at the
//	                        same worker count (the 2× margin tolerates
//	                        CI-runner noise; the Makefile pins both the
//	                        recording and the smoke to -cpu 1).
package repro_test

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/pool"
	"repro/internal/rng"
)

// poolBenchN is the streamed pool size: POOL_BENCH_N from the
// environment, defaulting to 200k (a few seconds single-core).
func poolBenchN(b *testing.B) int {
	if s := os.Getenv("POOL_BENCH_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			b.Fatalf("POOL_BENCH_N=%q: want a positive integer", s)
		}
		return n
	}
	return 200_000
}

// benchPoolEntry is one recorded bench-pool measurement — the schema of
// BENCH_pool.json (an array, newest entry last).
type benchPoolEntry struct {
	Bench          string  `json:"bench"`
	Kernel         string  `json:"kernel"` // "exact"
	NsPerCandidate float64 `json:"ns_per_candidate"`
	BPerOp         int64   `json:"b_per_op"`
	PoolSize       int     `json:"pool_size"`
	Shard          int     `json:"shard"`
	Workers        int     `json:"workers"`
	GitSHA         string  `json:"git_sha"`
	Timestamp      string  `json:"timestamp"`
}

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

// benchEntryIdx tracks, per kernel, the BENCH_POOL_JSON index this
// process already wrote: the bench harness re-invokes each benchmark
// with growing b.N until -benchtime is satisfied, and only the final
// (longest, most accurate) invocation should survive as the run's
// recorded entry.
var benchEntryIdx = map[string]int{}

// recordPoolBench appends the entry to $BENCH_POOL_JSON (if set) and
// enforces the $POOL_BENCH_BASELINE regression guard (if set).
func recordPoolBench(b *testing.B, e benchPoolEntry) {
	if path := os.Getenv("BENCH_POOL_JSON"); path != "" {
		var entries []benchPoolEntry
		if data, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(data, &entries); err != nil {
				b.Fatalf("BENCH_POOL_JSON %s: existing file is not a bench entry array: %v", path, err)
			}
		}
		if idx, ok := benchEntryIdx[e.Kernel]; ok && idx < len(entries) {
			entries[idx] = e
		} else {
			benchEntryIdx[e.Kernel] = len(entries)
			entries = append(entries, e)
		}
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatalf("BENCH_POOL_JSON: %v", err)
		}
	}
	if path := os.Getenv("POOL_BENCH_BASELINE"); path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			b.Fatalf("POOL_BENCH_BASELINE: %v", err)
		}
		var entries []benchPoolEntry
		if err := json.Unmarshal(data, &entries); err != nil {
			b.Fatalf("POOL_BENCH_BASELINE %s: %v", path, err)
		}
		// The guard compares like with like: the newest entry for the same
		// kernel recorded at the same worker count (GOMAXPROCS). The scan
		// does not scale linearly with workers on small hosts, so no
		// per-core normalisation can make a 2-worker run comparable to a
		// 1-worker baseline; the Makefile runs both the recording and the
		// smoke at -cpu 1. With no matching entry there is nothing to
		// guard against. The 2x margin absorbs runner noise and the
		// per-core speed difference between recorder and runner.
		baseline := 0.0
		for _, base := range entries { // newest matching entry wins
			if base.Kernel == e.Kernel && base.Workers == e.Workers {
				baseline = base.NsPerCandidate
			}
		}
		if baseline == 0 {
			b.Logf("POOL_BENCH_BASELINE: no %s entry at workers=%d; guard skipped", e.Kernel, e.Workers)
		} else if e.NsPerCandidate > 2*baseline {
			b.Fatalf("pool scoring regression: %.0f ns/candidate on the %s kernel at workers=%d, recorded baseline %.0f (limit 2x)",
				e.NsPerCandidate, e.Kernel, e.Workers, baseline)
		}
	}
}

// poolBenchForest fits the paper-scale 64-tree surrogate the pipeline
// scores with.
func poolBenchForest(b *testing.B) (bench.Problem, *forest.Forest) {
	p, err := bench.ByName("atax")
	if err != nil {
		b.Fatal(err)
	}
	sp := p.Space()
	r := rng.New(42)
	train := sp.SampleConfigs(r, 200)
	X := sp.EncodeAll(train)
	y := make([]float64, len(train))
	for i, c := range train {
		y[i] = p.TrueTime(c)
	}
	f, err := forest.Fit(X, y, sp.Features(), forest.Config{NumTrees: 64}, r.Split())
	if err != nil {
		b.Fatal(err)
	}
	return p, f
}

// benchStream presents one lazily generated, scored pool as the
// core.PoolStream a session's strategy selects from, so the bench runs
// PWU.SelectStream — the floor-pruned reducer sessions use.
type benchStream struct {
	src pool.Source
	sc  pool.BatchScorer
}

func (s benchStream) Len() int       { return s.src.Len() }
func (s benchStream) BestY() float64 { return 0 }
func (s benchStream) Rand() *rng.RNG { return nil }
func (s benchStream) Scan(consume func(ord int, x []float64, mu, sigma float64)) error {
	return pool.Scan(context.Background(), s.src, s.sc, pool.ScanConfig{}, consume)
}

// poolBenchLoop drives the generate -> encode -> score -> top-k pipeline
// with the given scorer and records the result.
func poolBenchLoop(b *testing.B, p bench.Problem, sc pool.BatchScorer) {
	sp := p.Space()
	n := poolBenchN(b)
	strat := core.PWU{Alpha: 0.05}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, err := strat.SelectStream(benchStream{src: pool.NewUniform(sp, 7, n), sc: sc}, 16)
		if err != nil {
			b.Fatal(err)
		}
		if len(sel) == 0 {
			b.Fatal("empty selection")
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	perCand := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(n)
	b.ReportMetric(perCand, "ns/candidate")
	b.ReportMetric(float64(n), "pool_size")
	recordPoolBench(b, benchPoolEntry{
		Bench:          "PoolStreamPWU",
		Kernel:         "exact",
		NsPerCandidate: perCand,
		BPerOp:         int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(b.N),
		PoolSize:       n,
		Shard:          1024, // pool.ScanConfig default
		Workers:        runtime.GOMAXPROCS(0),
		GitSHA:         gitSHA(),
		Timestamp:      time.Now().UTC().Format(time.RFC3339),
	})
}

func BenchmarkPoolStreamPWU(b *testing.B) {
	p, f := poolBenchForest(b)
	poolBenchLoop(b, p, f)
}
