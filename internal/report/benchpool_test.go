package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchPoolRendersLatestPerKernel(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_pool.json")
	// Two exact entries (the stale one must lose) plus one historical
	// entry of the removed quant kernel.
	data := `[
	  {"bench":"PoolStreamPWU","kernel":"exact","ns_per_candidate":9000,"b_per_op":1,"pool_size":1000,"shard":1024,"workers":1,"git_sha":"old","timestamp":"t0"},
	  {"bench":"PoolStreamPWU","kernel":"exact","ns_per_candidate":4000,"b_per_op":2,"pool_size":200000,"shard":1024,"workers":1,"git_sha":"abc1234","timestamp":"t1"},
	  {"bench":"PoolStreamPWU","kernel":"quant","ns_per_candidate":1000,"b_per_op":3,"pool_size":200000,"shard":1024,"workers":2,"git_sha":"f675e74","timestamp":"t1"}
	]`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := BenchPool(path, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"| exact | 4000 |",      // newest exact entry, not the stale 9000
		"| quant | 1000 | 2000", // per-core ns = ns x workers
		"| 2 | f675e74 |",       // historical row keeps its commit
		"abc1234",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "| exact | 9000 |") {
		t.Fatalf("stale exact entry rendered:\n%s", out)
	}
	if strings.Contains(out, "speedup") {
		t.Fatalf("kernel speedup line rendered:\n%s", out)
	}
}

func TestBenchPoolErrors(t *testing.T) {
	if err := BenchPool(filepath.Join(t.TempDir(), "missing.json"), &bytes.Buffer{}); err == nil {
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
		if err := BenchPool(path, &bytes.Buffer{}); err == nil {
			t.Fatalf("%s: want error", name)
		}
	}
}
