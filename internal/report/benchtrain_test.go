package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchTrainRendersLatestPerBench(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_train.json")
	// ForestFit: an old commit, a stale entry on other worker count, the
	// parent and the change (the speedup compares the last two). TreeFit
	// has entries of one commit only, so it gets no speedup.
	data := `[
	  {"bench":"ForestFit","n":3000,"d":10,"trees":64,"ms_per_fit":900,"allocs_per_op":9,"workers":2,"git_sha":"old","timestamp":"t0"},
	  {"bench":"TreeFit","n":3000,"d":10,"trees":1,"ms_per_fit":12,"allocs_per_op":600,"workers":1,"git_sha":"abc1234","timestamp":"t1"},
	  {"bench":"ForestFit","n":3000,"d":10,"trees":64,"ms_per_fit":700,"allocs_per_op":8,"workers":4,"git_sha":"abc1234","timestamp":"t1"},
	  {"bench":"ForestFit","n":3000,"d":10,"trees":64,"ms_per_fit":600,"allocs_per_op":7,"workers":2,"git_sha":"abc1234","timestamp":"t1"},
	  {"bench":"TreeFit","n":3000,"d":10,"trees":1,"ms_per_fit":11,"allocs_per_op":655,"workers":1,"git_sha":"abc1234","timestamp":"t2"},
	  {"bench":"ForestFit","n":3000,"d":10,"trees":64,"ms_per_fit":400,"allocs_per_op":6,"workers":2,"git_sha":"def5678","timestamp":"t2"}
	]`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := BenchTrain(path, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"| ForestFit | 3000 | 10 | 64 | 400.0 | 6 | 2 | def5678 |", // newest entry, not 900/700/600
		"| TreeFit | 3000 | 10 | 1 | 11.0 | 655 | 1 | abc1234 |",
		"ForestFit 1.50x (600.0 ms at abc1234)", // same workers, different commit
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	for _, stale := range []string{"| 900.0 |", "| 700.0 |", "| 600.0 |", "TreeFit 1."} {
		if strings.Contains(out, stale) {
			t.Fatalf("output contains %q:\n%s", stale, out)
		}
	}
	if n := strings.Count(out, "Speedup"); n != 1 {
		t.Fatalf("%d speedup lines, want 1:\n%s", n, out)
	}
}

func TestBenchTrainErrors(t *testing.T) {
	if err := BenchTrain(filepath.Join(t.TempDir(), "missing.json"), &bytes.Buffer{}); err == nil {
		t.Fatal("missing file: want error")
	}
	dir := t.TempDir()
	for name, data := range map[string]string{
		"garbage.json": "{not json",
		"empty.json":   "[]",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := BenchTrain(path, &bytes.Buffer{}); err == nil {
			t.Fatalf("%s: want error", name)
		}
	}
}
