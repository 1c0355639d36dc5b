package report

import (
	"fmt"
	"io"
)

// BenchPoolEntry mirrors the schema of BENCH_pool.json, the
// machine-readable trajectory `make bench-pool` appends to (see
// pool_bench_test.go for the writer).
type BenchPoolEntry struct {
	Bench          string  `json:"bench"`
	Kernel         string  `json:"kernel"`
	NsPerCandidate float64 `json:"ns_per_candidate"`
	BPerOp         int64   `json:"b_per_op"`
	PoolSize       int     `json:"pool_size"`
	Shard          int     `json:"shard"`
	Workers        int     `json:"workers"`
	GitSHA         string  `json:"git_sha"`
	Timestamp      string  `json:"timestamp"`
}

// BenchPool renders the newest recorded bench-pool measurement per
// kernel as a Markdown section: the per-candidate and per-core cost and
// the projected wall-clock for a 10^7-candidate pool. Entries of
// kernels no longer benchmarked (the removed quantized kernel) still
// render as history, with the commit that recorded them.
func BenchPool(path string, w io.Writer) error {
	entries, err := readEntries[BenchPoolEntry](path)
	if err != nil {
		return err
	}
	latest := map[string]BenchPoolEntry{}
	var order []string
	for _, e := range entries { // newest entry per kernel wins
		if _, seen := latest[e.Kernel]; !seen {
			order = append(order, e.Kernel)
		}
		latest[e.Kernel] = e
	}

	fmt.Fprintf(w, "## Streaming pool scoring (`make bench-pool`)\n\n")
	fmt.Fprintf(w, "| kernel | ns/candidate | per-core ns | 10^7 pool | B/op | pool | workers | commit |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|\n")
	for _, k := range order {
		e := latest[k]
		perCore := e.NsPerCandidate * float64(e.Workers)
		fmt.Fprintf(w, "| %s | %.0f | %.0f | %.1f s | %d | %d | %d | %s |\n",
			e.Kernel, e.NsPerCandidate, perCore,
			e.NsPerCandidate*1e7/1e9, e.BPerOp, e.PoolSize, e.Workers, e.GitSHA)
	}
	return nil
}
