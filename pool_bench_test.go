// bench-pool: throughput of the streaming sharded scoring pipeline.
//
// BenchmarkPoolStreamPWU scores a pool of POOL_BENCH_N uniform candidates
// (default 200k; set POOL_BENCH_N=10000000 for the 10^7-config
// demonstration) with a paper-scale 64-tree forest and selects the PWU
// top-16 through core.PWU.SelectStream — the exact hot path of a
// session's selection step (floor-pruned top-k), on the forest's batch
// kernel (a branchless 8-lane walk over order-preserving uint64 keys of
// the float64 features, bit-identical to the scalar walk). The pool is
// never materialized: peak memory is O(workers x shard) regardless of
// POOL_BENCH_N, which -benchmem makes visible (B/op stays flat as the
// pool grows).
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
// Each run records one BENCH_pool.json entry (bench_record_test.go):
// bench "PoolStreamPWU", key "exact", metric "ns_per_candidate", params
// pool_size and shard. The file's older entries under key "quant", of
// the removed float32 kernel, are history and never serve as a
// baseline.
package repro_test

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/pool"
	"repro/internal/report"
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
	recordBench(b, report.BenchEntry{
		Bench:       "PoolStreamPWU",
		Key:         "exact",
		Metric:      "ns_per_candidate",
		Value:       perCand,
		Workers:     runtime.GOMAXPROCS(0),
		BPerOp:      int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(b.N),
		AllocsPerOp: int64(ms1.Mallocs-ms0.Mallocs) / int64(b.N),
		Params:      map[string]float64{"pool_size": float64(n), "shard": 1024}, // pool.ScanConfig's default shard
	})
}

func BenchmarkPoolStreamPWU(b *testing.B) {
	p, f := poolBenchForest(b)
	poolBenchLoop(b, p, f)
}
