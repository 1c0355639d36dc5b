// bench-checkpoint: what one boundary checkpoint of a tuned session
// costs, recorded as the BENCH_checkpoint.json trajectory.
//
// BenchmarkSessionCheckpoint times Session.Snapshot plus runstate.Save —
// encode, write, fsync, rename, directory fsync — for a serve-refit-shaped
// session (adi, a 2000-candidate pool, batches of one, 100 labels, 32
// cold-refit trees) at its final boundary, on one core (-cpu 1). It
// records one entry per run (bench_record_test.go): bench
// "SessionCheckpoint", no key, metric "ms_per_checkpoint", params bytes
// (the checkpoint file's size), labels and trees. The fsync dominates
// and belongs to the disk under the test's temp directory, so entries
// compare only on one host and no smoke gate guards them.
package repro_test

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/runstate"
)

// checkpointBenchSession drives a serve-refit-shaped session to its
// final boundary.
func checkpointBenchSession(b *testing.B, labels, trees int) *core.Session {
	b.Helper()
	p, err := bench.ByName("adi")
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.NewSession(core.SessionConfig{
		Source: pool.NewUniform(p.Space(), 42, 2000), Strategy: core.PWU{Alpha: 0.1},
		Params: core.Params{NInit: 10, NBatch: 1, NMax: labels, Forest: forest.Config{NumTrees: trees}},
		RNG:    rng.New(42),
	})
	if err != nil {
		b.Fatal(err)
	}
	ev := bench.Evaluator(p, rng.New(43))
	ctx := context.Background()
	for !s.Done() {
		batch, err := s.Ask(ctx)
		if err != nil {
			b.Fatal(err)
		}
		ls := make([]core.Label, len(batch))
		for i, c := range batch {
			if ls[i].Y, err = ev.Evaluate(ctx, c); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Tell(ctx, ls); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func BenchmarkSessionCheckpoint(b *testing.B) {
	const labels, trees = 100, 32
	s := checkpointBenchSession(b, labels, trees)
	path := filepath.Join(b.TempDir(), "s-00000001.ckpt")
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := s.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if err := runstate.Save(path, snap); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()), "bytes/checkpoint")
	recordBench(b, report.BenchEntry{
		Bench:       "SessionCheckpoint",
		Metric:      "ms_per_checkpoint",
		Value:       float64(b.Elapsed().Nanoseconds()) / float64(b.N) / 1e6,
		Workers:     1,
		BPerOp:      int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(b.N),
		AllocsPerOp: int64(ms1.Mallocs-ms0.Mallocs) / int64(b.N),
		Params:      map[string]float64{"bytes": float64(fi.Size()), "labels": labels, "trees": trees},
	})
}
