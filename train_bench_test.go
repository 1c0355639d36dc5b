// bench-train: cost of one surrogate refit on the training engine
// (DESIGN.md §8), recorded as the BENCH_train.json trajectory.
//
// BenchmarkTreeFit times one tree induction at paper scale on the
// presorted engine (the reference builder it is pinned to is a test
// oracle in internal/tree, timed there by BenchmarkFitReference500x20);
// BenchmarkForestFit times a full 64-tree refit at paper scale
// and BenchmarkForestFitTune the refit autotune.Tune runs at Default()
// sizes (gemver's encoded space, 200 labels, 64 trees). Each records one
// entry per run.
//
// Environment hooks, wired up by the Makefile:
//
//	BENCH_TRAIN_JSON=path    append a machine-readable result entry
//	                         (see benchTrainEntry) to the JSON array at
//	                         path — the trajectory BENCH_train.json.
//	TRAIN_BENCH_BASELINE=path  regression guard: fail the benchmark if
//	                         per-core ms/fit (ms × workers) exceeds twice
//	                         the most recent recorded entry for the same
//	                         benchmark (the 2× margin tolerates CI-runner
//	                         noise).
package repro_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/forest"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/tree"
)

// benchTrainEntry is one recorded bench-train measurement — the schema
// of BENCH_train.json (an array, newest entry last).
type benchTrainEntry struct {
	Bench       string  `json:"bench"`
	N           int     `json:"n"`
	D           int     `json:"d"`
	Trees       int     `json:"trees"`
	MsPerFit    float64 `json:"ms_per_fit"`
	BPerOp      int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Workers     int     `json:"workers"` // goroutines fitting: 1 for a tree, GOMAXPROCS for a forest
	GitSHA      string  `json:"git_sha"`
	Timestamp   string  `json:"timestamp"`
}

// trainEntryIdx tracks, per benchmark, the BENCH_TRAIN_JSON index this
// process already wrote, so only the final (longest, most accurate)
// harness invocation survives as the run's recorded entry.
var trainEntryIdx = map[string]int{}

// recordTrainBench appends the entry to $BENCH_TRAIN_JSON (if set) and
// enforces the $TRAIN_BENCH_BASELINE regression guard (if set).
func recordTrainBench(b *testing.B, e benchTrainEntry) {
	if path := os.Getenv("BENCH_TRAIN_JSON"); path != "" {
		var entries []benchTrainEntry
		if data, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(data, &entries); err != nil {
				b.Fatalf("BENCH_TRAIN_JSON %s: existing file is not a bench entry array: %v", path, err)
			}
		}
		if idx, ok := trainEntryIdx[e.Bench]; ok && idx < len(entries) {
			entries[idx] = e
		} else {
			trainEntryIdx[e.Bench] = len(entries)
			entries = append(entries, e)
		}
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatalf("BENCH_TRAIN_JSON: %v", err)
		}
	}
	if path := os.Getenv("TRAIN_BENCH_BASELINE"); path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			b.Fatalf("TRAIN_BENCH_BASELINE: %v", err)
		}
		var entries []benchTrainEntry
		if err := json.Unmarshal(data, &entries); err != nil {
			b.Fatalf("TRAIN_BENCH_BASELINE %s: %v", path, err)
		}
		// Per-core ms/fit (ms × workers), as for bench-pool: forest fits
		// parallelise across trees, so a baseline recorded on more cores
		// would otherwise trip on any smaller runner.
		perCore := e.MsPerFit * float64(e.Workers)
		baseline := 0.0
		for _, base := range entries { // newest matching entry wins
			if base.Bench == e.Bench {
				baseline = base.MsPerFit * float64(base.Workers)
			}
		}
		if baseline > 0 && perCore > 2*baseline {
			b.Fatalf("training regression: %.1f per-core ms/fit on %s, recorded baseline %.1f (limit 2x)",
				perCore, e.Bench, baseline)
		}
	}
}

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
	recordTrainBench(b, benchTrainEntry{
		Bench:       name,
		N:           n,
		D:           d,
		Trees:       trees,
		MsPerFit:    float64(b.Elapsed().Nanoseconds()) / float64(b.N) / 1e6,
		BPerOp:      int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(b.N),
		AllocsPerOp: int64(ms1.Mallocs-ms0.Mallocs) / int64(b.N),
		Workers:     workers,
		GitSHA:      gitSHA(),
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
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
