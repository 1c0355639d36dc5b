package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// BenchEntry is one recorded benchmark measurement: the one schema of
// the BENCH_pool.json, BENCH_train.json, BENCH_campaign.json and
// BENCH_checkpoint.json trajectories, each a JSON array with the newest
// entry last. The root package's benchmarks append entries (recordBench
// in bench_record_test.go); Bench renders them.
type BenchEntry struct {
	Bench       string             `json:"bench"`
	Key         string             `json:"key,omitempty"` // the kernel or the mode; empty for training
	Metric      string             `json:"metric"`        // what Value measures, e.g. "ns_per_candidate"
	Value       float64            `json:"value"`         // a cost: lower is better
	Workers     int                `json:"workers"`
	BPerOp      int64              `json:"b_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Params      map[string]float64 `json:"params,omitempty"` // the workload's shape and side counters
	GitSHA      string             `json:"git_sha"`
	Timestamp   string             `json:"timestamp"`
}

// PerCore is the entry's value times its worker count, the cost that
// compares across hosts of different core counts.
func (e BenchEntry) PerCore() float64 { return e.Value * float64(e.Workers) }

// workloadParams are the params that size a benchmark's workload: the
// campaign grid's kernel count, the scored pool, the training set and
// forest, the labeled set. Entries that differ in any of them — or carry
// one the other lacks — time different workloads.
var workloadParams = []string{"problems", "pool_size", "n", "d", "trees", "labels"}

// workload renders the entry's workload params, the part of its
// identity beyond bench and key.
func (e BenchEntry) workload() string {
	var parts []string
	for _, k := range workloadParams {
		if v, ok := e.Params[k]; ok {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	return strings.Join(parts, " ")
}

// SameWorkload reports whether e and o time the same workload: the same
// bench and key, and equal workload params (a smoke-sized run never
// compares with a full-size recording).
func (e BenchEntry) SameWorkload(o BenchEntry) bool {
	return e.Bench == o.Bench && e.Key == o.Key && e.workload() == o.workload()
}

// ReadBench reads a benchmark trajectory. An empty array is not an
// error; a missing file or malformed JSON is.
func ReadBench(path string) ([]BenchEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []BenchEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return entries, nil
}

// Bench renders a benchmark trajectory as a Markdown section: the newest
// entry per (bench, key, workload, workers), in first-appearance order,
// then one speedup line comparing each such entry with the newest
// earlier entry of the same group recorded at a different commit.
func Bench(path string, w io.Writer) error {
	entries, err := ReadBench(path)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("%s: no recorded entries", path)
	}
	type group struct {
		bench, key, workload string
		workers              int
	}
	latest := map[group]int{}
	var order []group
	for i, e := range entries { // the newest entry per group wins
		g := group{e.Bench, e.Key, e.workload(), e.Workers}
		if _, seen := latest[g]; !seen {
			order = append(order, g)
		}
		latest[g] = i
	}

	fmt.Fprintf(w, "## Benchmark trajectory (`%s`)\n\n", filepath.Base(path))
	fmt.Fprintf(w, "| bench | key | metric | value | workers | per-core | B/op | allocs/op | params | commit |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|\n")
	var speedups []string
	for _, g := range order {
		i := latest[g]
		e := entries[i]
		fmt.Fprintf(w, "| %s | %s | %s | %.1f | %d | %.1f | %d | %d | %s | %s |\n",
			e.Bench, e.Key, e.Metric, e.Value, e.Workers, e.PerCore(), e.BPerOp, e.AllocsPerOp, formatParams(e.Params), e.GitSHA)
		for j := i - 1; j >= 0; j-- {
			p := entries[j]
			if p.SameWorkload(e) && p.Workers == e.Workers && p.GitSHA != e.GitSHA {
				if e.Value > 0 {
					name := e.Bench
					if e.Key != "" {
						name += "/" + e.Key
					}
					if g.workload != "" {
						name += " [" + g.workload + "]"
					}
					speedups = append(speedups, fmt.Sprintf("%s (workers=%d) %.2fx (%.1f at %s)", name, e.Workers, p.Value/e.Value, p.Value, p.GitSHA))
				}
				break
			}
		}
	}
	if len(speedups) > 0 {
		fmt.Fprintf(w, "\nSpeedup over the previous commit: %s.\n", strings.Join(speedups, "; "))
	}
	return nil
}

// formatParams renders params as space-separated key=value pairs in key
// order, whole numbers without a fraction.
func formatParams(params map[string]float64) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		v := params[k]
		if v == math.Trunc(v) {
			parts[i] = fmt.Sprintf("%s=%.0f", k, v)
		} else {
			parts[i] = fmt.Sprintf("%s=%.2f", k, v)
		}
	}
	return strings.Join(parts, " ")
}
