package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchCampaignRendersTrajectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_campaign.json")
	// Two local entries (both rendered in the trajectory; the newest
	// feeds the overhead line) plus one fleet entry. The local entries
	// predate the steals field and must still decode.
	data := `[
	  {"bench":"CampaignFig2","mode":"local","ms_per_cell":30,"wall_ms":720,"cells":24,"workers":1,"utilization":0.99,"requeues":0,"git_sha":"old","timestamp":"t0"},
	  {"bench":"CampaignFig2","mode":"local","ms_per_cell":10,"wall_ms":480,"cells":48,"workers":1,"utilization":0.99,"requeues":0,"git_sha":"abc1234","timestamp":"t1"},
	  {"bench":"CampaignFig2","mode":"fleet","ms_per_cell":7.5,"wall_ms":720,"cells":48,"workers":2,"utilization":0.61,"steals":5,"requeues":3,"git_sha":"abc1234","timestamp":"t1"}
	]`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := BenchCampaign(path, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"| local | 30.0 |",         // the full trajectory is rendered,
		"| local | 10.0 | 10.0 |",  // newest local: per-core ms = ms x workers
		"| fleet | 7.5 | 15.0 |",   // fleet per-core: 7.5 x 2 workers
		"| 3 | abc1234 |",          // requeue count and commit survive
		"| 0.61 | 5 | 3 |",         // steals sit beside requeues
		"| 0.99 | 0 | 0 | old |",   // an entry without steals reads 0
		"overhead: 1.50x per core", // 15.0 vs newest local 10.0, not the stale 30.0
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestBenchCampaignErrors(t *testing.T) {
	if err := BenchCampaign(filepath.Join(t.TempDir(), "missing.json"), &bytes.Buffer{}); err == nil {
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
		if err := BenchCampaign(path, &bytes.Buffer{}); err == nil {
			t.Fatalf("%s: want error", name)
		}
	}
}
