package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// renderBench writes data to a trajectory file and renders it.
func renderBench(t *testing.T, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Bench(path, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// wantRows fails unless out holds every row, in order.
func wantRows(t *testing.T, out string, rows ...string) {
	t.Helper()
	last := -1
	for _, row := range rows {
		at := strings.Index(out, row)
		if at < 0 {
			t.Fatalf("output missing %q:\n%s", row, out)
		}
		if at < last {
			t.Fatalf("row %q out of first-appearance order:\n%s", row, out)
		}
		last = at
	}
}

// TestBenchPoolRendersLatestPerKernel: a pool-scoring trajectory renders
// the newest entry per key (kernel) and pool size, with the per-core
// value (value × workers), the memory columns, the params and the
// commit; a smoke-sized pool is its own row and never a baseline.
func TestBenchPoolRendersLatestPerKernel(t *testing.T) {
	// Two exact entries (the stale one must lose), one historical entry
	// of the removed quant kernel at two workers, and a smoke-sized exact
	// entry at another commit.
	out := renderBench(t, `[
	  {"bench":"PoolStreamPWU","key":"exact","metric":"ns_per_candidate","value":9000,"workers":1,"b_per_op":1,"params":{"pool_size":200000,"shard":1024},"git_sha":"abc1234","timestamp":"t0"},
	  {"bench":"PoolStreamPWU","key":"quant","metric":"ns_per_candidate","value":1000,"workers":2,"b_per_op":3,"params":{"pool_size":200000,"shard":1024},"git_sha":"f675e74","timestamp":"t1"},
	  {"bench":"PoolStreamPWU","key":"exact","metric":"ns_per_candidate","value":4000,"workers":1,"b_per_op":2,"allocs_per_op":5,"params":{"pool_size":200000,"shard":1024},"git_sha":"abc1234","timestamp":"t1"},
	  {"bench":"PoolStreamPWU","key":"exact","metric":"ns_per_candidate","value":6000,"workers":1,"params":{"pool_size":20000,"shard":1024},"git_sha":"def5678","timestamp":"t2"}
	]`)
	wantRows(t, out,
		"| PoolStreamPWU | exact | ns_per_candidate | 4000.0 | 1 | 4000.0 | 2 | 5 | pool_size=200000 shard=1024 | abc1234 |",
		"| PoolStreamPWU | quant | ns_per_candidate | 1000.0 | 2 | 2000.0 | 3 | 0 | pool_size=200000 shard=1024 | f675e74 |",
		"| PoolStreamPWU | exact | ns_per_candidate | 6000.0 | 1 | 6000.0 | 0 | 0 | pool_size=20000 shard=1024 | def5678 |",
	)
	if strings.Contains(out, "9000") {
		t.Fatalf("stale exact entry rendered:\n%s", out)
	}
	if strings.Contains(out, "Speedup") {
		t.Fatalf("speedup line without a previous commit:\n%s", out)
	}
}

// TestBenchTrainRendersLatestPerBench: an entry without a key renders
// under its bench alone, and the speedup line compares each group's
// newest entry with the newest earlier entry of the same bench, key and
// workers recorded at a different commit.
func TestBenchTrainRendersLatestPerBench(t *testing.T) {
	// ForestFit at 2 workers: an old commit, the parent twice (the newer
	// parent entry is the baseline) and the change. The 4-worker entry
	// and the other key never serve as its baseline. TreeFit has entries
	// of one commit only, so it gets no ratio.
	out := renderBench(t, `[
	  {"bench":"ForestFit","metric":"ms_per_fit","value":900,"workers":2,"git_sha":"old","timestamp":"t0"},
	  {"bench":"ForestFit","metric":"ms_per_fit","value":650,"workers":2,"git_sha":"abc1234","timestamp":"t1"},
	  {"bench":"TreeFit","metric":"ms_per_fit","value":12,"workers":1,"params":{"d":10,"n":3000,"trees":1},"git_sha":"abc1234","timestamp":"t1"},
	  {"bench":"ForestFit","metric":"ms_per_fit","value":700,"workers":4,"git_sha":"abc1234","timestamp":"t1"},
	  {"bench":"ForestFit","key":"other","metric":"ms_per_fit","value":100,"workers":2,"git_sha":"abc1234","timestamp":"t1"},
	  {"bench":"ForestFit","metric":"ms_per_fit","value":600,"workers":2,"git_sha":"abc1234","timestamp":"t1"},
	  {"bench":"TreeFit","metric":"ms_per_fit","value":11,"workers":1,"b_per_op":400,"allocs_per_op":655,"params":{"d":10,"n":3000,"trees":1},"git_sha":"abc1234","timestamp":"t2"},
	  {"bench":"ForestFit","metric":"ms_per_fit","value":400,"workers":2,"git_sha":"def5678","timestamp":"t2"}
	]`)
	wantRows(t, out,
		"| ForestFit |  | ms_per_fit | 400.0 | 2 | 800.0 | 0 | 0 |  | def5678 |",
		"| TreeFit |  | ms_per_fit | 11.0 | 1 | 11.0 | 400 | 655 | d=10 n=3000 trees=1 | abc1234 |",
		"| ForestFit |  | ms_per_fit | 700.0 | 4 | 2800.0 |",
		"| ForestFit | other | ms_per_fit | 100.0 | 2 | 200.0 |",
	)
	want := "\nSpeedup over the previous commit: ForestFit (workers=2) 1.50x (600.0 at abc1234).\n"
	if !strings.HasSuffix(out, want) {
		t.Fatalf("output does not end with %q:\n%s", want, out)
	}
	if n := strings.Count(out, "Speedup"); n != 1 {
		t.Fatalf("%d speedup lines, want 1:\n%s", n, out)
	}
}

// TestBenchCampaignRendersTrajectory: a campaign trajectory renders one
// row per (key, workers), so the local and fleet per-core values sit in
// adjacent rows, with fractional params to two places.
func TestBenchCampaignRendersTrajectory(t *testing.T) {
	out := renderBench(t, `[
	  {"bench":"CampaignFig2","key":"local","metric":"ms_per_cell","value":30,"workers":1,"params":{"cells":24,"utilization":0.994},"git_sha":"old","timestamp":"t0"},
	  {"bench":"CampaignFig2","key":"local","metric":"ms_per_cell","value":10,"workers":2,"params":{"cells":48,"utilization":0.99},"git_sha":"abc1234","timestamp":"t1"},
	  {"bench":"CampaignFig2","key":"fleet","metric":"ms_per_cell","value":7.5,"workers":2,"params":{"cells":48,"requeues":3,"steals":5,"utilization":0.61,"wall_ms":720},"git_sha":"abc1234","timestamp":"t1"}
	]`)
	wantRows(t, out,
		"| CampaignFig2 | local | ms_per_cell | 30.0 | 1 | 30.0 | 0 | 0 | cells=24 utilization=0.99 | old |",
		"| CampaignFig2 | local | ms_per_cell | 10.0 | 2 | 20.0 | 0 | 0 | cells=48 utilization=0.99 | abc1234 |\n"+
			"| CampaignFig2 | fleet | ms_per_cell | 7.5 | 2 | 15.0 | 0 | 0 | cells=48 requeues=3 steals=5 utilization=0.61 wall_ms=720 | abc1234 |",
	)
	if strings.Contains(out, "Speedup") {
		t.Fatalf("speedup across worker counts:\n%s", out)
	}
}

// wantBenchErrors fails unless a missing trajectory file named name,
// one of malformed JSON and one holding an empty array are errors, and
// unless the committed trajectory of that name renders under the one
// entry schema.
func wantBenchErrors(t *testing.T, name string) {
	t.Helper()
	dir := t.TempDir()
	if err := Bench(filepath.Join(dir, name), &bytes.Buffer{}); err == nil {
		t.Fatalf("missing %s: want error", name)
	}
	for label, data := range map[string]string{
		"malformed": "{not json",
		"empty":     "[]",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Bench(path, &bytes.Buffer{}); err == nil {
			t.Fatalf("%s %s: want error", label, name)
		}
	}
	var buf bytes.Buffer
	if err := Bench(filepath.Join("..", "..", name), &buf); err != nil {
		t.Fatalf("committed %s: %v", name, err)
	}
	if !strings.Contains(buf.String(), "| bench | key |") {
		t.Fatalf("committed %s: no table:\n%s", name, buf.String())
	}
}

// TestBenchPoolErrors: the pool-scoring trajectory's bad files are
// errors, and the committed one renders.
func TestBenchPoolErrors(t *testing.T) { wantBenchErrors(t, "BENCH_pool.json") }

// TestBenchTrainErrors: the training trajectory's bad files are errors,
// and the committed one renders.
func TestBenchTrainErrors(t *testing.T) { wantBenchErrors(t, "BENCH_train.json") }

// TestBenchCampaignErrors: the campaign trajectory's bad files are
// errors, and the committed one renders.
func TestBenchCampaignErrors(t *testing.T) { wantBenchErrors(t, "BENCH_campaign.json") }

// TestBenchCheckpointErrors: the checkpoint trajectory's bad files are
// errors, and the committed one renders.
func TestBenchCheckpointErrors(t *testing.T) { wantBenchErrors(t, "BENCH_checkpoint.json") }

// TestBenchSameWorkload: entries time the same workload when bench, key
// and every workload param agree; a param one entry lacks, a different
// size, key or bench does not match, and side counters do not matter.
func TestBenchSameWorkload(t *testing.T) {
	base := BenchEntry{Bench: "CampaignFig2", Key: "local", Params: map[string]float64{"problems": 2, "cells": 36, "wall_ms": 300}}
	same := BenchEntry{Bench: "CampaignFig2", Key: "local", Params: map[string]float64{"problems": 2, "cells": 36, "wall_ms": 900}}
	if !base.SameWorkload(same) {
		t.Fatal("side counters split a workload")
	}
	for name, o := range map[string]BenchEntry{
		"size":    {Bench: "CampaignFig2", Key: "local", Params: map[string]float64{"problems": 4}},
		"missing": {Bench: "CampaignFig2", Key: "local", Params: map[string]float64{"cells": 36}},
		"key":     {Bench: "CampaignFig2", Key: "fleet", Params: map[string]float64{"problems": 2}},
		"bench":   {Bench: "PoolStreamPWU", Key: "local", Params: map[string]float64{"problems": 2}},
	} {
		if base.SameWorkload(o) || o.SameWorkload(base) {
			t.Fatalf("%s: entries of different workloads match", name)
		}
	}
}
