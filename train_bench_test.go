// bench-train: cost of one surrogate refit on the training engine
// (DESIGN.md §8), recorded as the BENCH_train.json trajectory.
//
// BenchmarkTreeFit times one tree induction at paper scale on the
// presorted engine (the reference builder it is pinned to is a test
// oracle in internal/tree, timed there by BenchmarkFitReference500x20);
// BenchmarkForestFit times a full 64-tree refit at paper scale
// and BenchmarkForestFitTune the refit autotune.Tune runs at Default()
// sizes (gemver's encoded space, 200 labels, 64 trees). Each records one
// entry per run (bench_record_test.go): bench the benchmark's name, no
// key, metric "ms_per_fit", params n, d and trees; workers is 1 for a
// tree and GOMAXPROCS for a forest.
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/forest"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/tree"
)

// trainBenchLoop times b.N calls of fit and records them under name.
func trainBenchLoop(b *testing.B, name string, n, d, trees, workers int, fit func(i int) error) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fit(i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	recordBench(b, report.BenchEntry{
		Bench:       name,
		Metric:      "ms_per_fit",
		Value:       float64(b.Elapsed().Nanoseconds()) / float64(b.N) / 1e6,
		Workers:     workers,
		BPerOp:      int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(b.N),
		AllocsPerOp: int64(ms1.Mallocs-ms0.Mallocs) / int64(b.N),
		Params:      map[string]float64{"n": float64(n), "d": float64(d), "trees": float64(trees)},
	})
}

// trainingSetup builds a paper-scale training matrix: n rows over a
// mixed 10-column space (6 numeric compilation-parameter-style columns
// quantised to coarse level grids, so duplicate values abound as in real
// tuning spaces, plus 4 categorical columns), with an interacting target.
func trainingSetup(n int) (X [][]float64, y []float64, fs []space.Feature) {
	r := rng.New(77)
	fs = make([]space.Feature, 10)
	levels := []int{4, 8, 16, 32, 6, 12}
	for j := 0; j < 6; j++ {
		fs[j] = space.Feature{Name: "u", Kind: space.FeatNumeric}
	}
	for j := 6; j < 10; j++ {
		fs[j] = space.Feature{Name: "c", Kind: space.FeatCategorical, NumCategories: 4 + j - 6}
	}
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		row := make([]float64, 10)
		for j := 0; j < 6; j++ {
			row[j] = float64(r.Intn(levels[j]))
		}
		for j := 6; j < 10; j++ {
			row[j] = float64(r.Intn(fs[j].NumCategories))
		}
		X[i] = row
		y[i] = row[0]*row[1] + 3*row[2] + 10*float64(int(row[6])%2) + row[4]*float64(int(row[8])%3) + r.Norm()
	}
	return X, y, fs
}

// BenchmarkTreeFit measures one tree induction at paper scale (n≈3000,
// d=10 mixed) on the presorted-column engine with a reused workspace —
// the per-tree cost inside every forest refit of Algorithm 1, plus the
// column ranking a forest pays once per refit.
func BenchmarkTreeFit(b *testing.B) {
	X, y, fs := trainingSetup(3000)
	ws := tree.NewWorkspace()
	trainBenchLoop(b, "TreeFit", len(X), len(fs), 1, 1, func(int) error {
		rk, err := tree.RankColumns(X, fs)
		if err != nil {
			return err
		}
		picks := make([]int32, len(X))
		for i := range picks {
			picks[i] = int32(i)
		}
		_, err = tree.FitRanked(rk, y, picks, tree.Config{}, nil, ws)
		return err
	})
}

// BenchmarkForestFit measures a full B=64 forest refit at paper scale —
// the per-iteration training cost of Algorithm 1's step 2, including
// column ranking, bootstrap resampling, parallel tree fitting and the
// parallel out-of-bag pass.
func BenchmarkForestFit(b *testing.B) {
	X, y, fs := trainingSetup(3000)
	benchForestFit(b, "ForestFit", X, y, fs)
}

// BenchmarkForestFitTune measures the refit autotune.Tune performs at
// Default() sizes: 64 trees on 200 labelled configurations of gemver's
// encoded space, the model budget of a tuning run.
func BenchmarkForestFitTune(b *testing.B) {
	p, err := bench.ByName("gemver")
	if err != nil {
		b.Fatal(err)
	}
	sp := p.Space()
	train := sp.SampleConfigs(rng.New(42), 200)
	X := sp.EncodeAll(train)
	y := make([]float64, len(train))
	for i, c := range train {
		y[i] = p.TrueTime(c)
	}
	benchForestFit(b, "ForestFitTune", X, y, sp.Features())
}

func benchForestFit(b *testing.B, name string, X [][]float64, y []float64, fs []space.Feature) {
	trainBenchLoop(b, name, len(X), len(fs), 64, runtime.GOMAXPROCS(0), func(i int) error {
		_, err := forest.Fit(X, y, fs, forest.Config{NumTrees: 64}, rng.New(uint64(i)))
		return err
	})
}
