package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// BenchTrainEntry mirrors the schema of BENCH_train.json, the
// machine-readable trajectory `make bench-train` appends to (see
// train_bench_test.go for the writer).
type BenchTrainEntry struct {
	Bench       string  `json:"bench"`
	N           int     `json:"n"`
	D           int     `json:"d"`
	Trees       int     `json:"trees"`
	MsPerFit    float64 `json:"ms_per_fit"`
	BPerOp      int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Workers     int     `json:"workers"`
	GitSHA      string  `json:"git_sha"`
	Timestamp   string  `json:"timestamp"`
}

// BenchTrain renders the newest recorded bench-train measurement per
// benchmark as a Markdown section, then one speedup line: each
// benchmark's newest entry against the newest earlier entry of the same
// benchmark and worker count recorded at a different commit.
func BenchTrain(path string, w io.Writer) error {
	entries, err := readEntries[BenchTrainEntry](path)
	if err != nil {
		return err
	}
	latest := map[string]int{}
	var order []string
	for i, e := range entries { // newest entry per benchmark wins
		if _, seen := latest[e.Bench]; !seen {
			order = append(order, e.Bench)
		}
		latest[e.Bench] = i
	}

	fmt.Fprintf(w, "## Training engine (`make bench-train`)\n\n")
	fmt.Fprintf(w, "| bench | n | d | trees | ms/fit | allocs/op | workers | commit |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|\n")
	var speedups []string
	for _, b := range order {
		i := latest[b]
		e := entries[i]
		fmt.Fprintf(w, "| %s | %d | %d | %d | %.1f | %d | %d | %s |\n",
			e.Bench, e.N, e.D, e.Trees, e.MsPerFit, e.AllocsPerOp, e.Workers, e.GitSHA)
		for j := i - 1; j >= 0; j-- {
			p := entries[j]
			if p.Bench == e.Bench && p.Workers == e.Workers && p.GitSHA != e.GitSHA {
				if e.MsPerFit > 0 {
					speedups = append(speedups, fmt.Sprintf("%s %.2fx (%.1f ms at %s)", b, p.MsPerFit/e.MsPerFit, p.MsPerFit, p.GitSHA))
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

// readEntries reads a BENCH_*.json trajectory: a non-empty JSON array of
// entries, newest last.
func readEntries[E any](path string) ([]E, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []E
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("%s: no recorded entries", path)
	}
	return entries, nil
}
