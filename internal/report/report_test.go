package report

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadCSV(t *testing.T) {
	in := "series,x,y\nPWU,10,0.5\nPWU,20,0.3\nPBUS,10,0.6\n"
	series, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].Name != "PWU" || series[1].Name != "PBUS" {
		t.Fatalf("series = %+v", series)
	}
	if len(series[0].X) != 2 || series[0].Y[1] != 0.3 {
		t.Fatalf("PWU series = %+v", series[0])
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"wrong,header,here\n",
		"series,x,y\nonly,two\n",
		"series,x,y\nA,notnum,1\n",
		"series,x,y\nA,1,notnum\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestFinal(t *testing.T) {
	s := Series{X: []float64{30, 10, 20}, Y: []float64{3, 1, 2}}
	if got := s.Final(); got != 3 {
		t.Fatalf("Final = %v", got)
	}
	if !math.IsNaN((Series{}).Final()) {
		t.Fatal("empty Final should be NaN")
	}
}

func TestGenerate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("fig2_atax.csv", "series,x,y\nPWU,10,0.5\nPWU,160,0.1\nPBUS,10,0.6\nPBUS,160,0.4\n")
	write("fig2_mm.csv", "series,x,y\nPWU,160,2.0\nPBUS,160,1.0\n")
	write("fig4_kripke_rmse.csv", "series,x,y\nPWU,300,1.5\nRandom,300,2.5\n")
	write("fig7_speedup.csv", "benchmark,speedup,target\natax,4.0,0.2\nmm,unreached,\n")
	write("fig8_tuning.csv", "series,x,y\nground truth,80,0.027\nsurrogate model,80,0.027\n")
	write("campaign.csv", "workers,tasks,steals,busy_ms,wall_ms,utilization,dataset_builds,dataset_hits,labels_saved\n"+
		"8,288,17,52000.000,7100.000,0.9155,24,120,18000\n")

	var buf bytes.Buffer
	if err := Generate(dir, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Kernels", "| atax | 0.1 | 0.4 | yes |", "PWU has the lowest final RMSE on 1 of 2 kernels",
		"kripke", "PWU 1.5",
		"| atax | 4.0 | 0.2 |",
		"Geometric-mean speedup 4.00x",
		"ground truth: best true time found 0.027",
		"Campaign engine",
		"workers: 8, tasks: 288, steals: 17",
		"worker utilization: 92%",
		"24 built, 120 served from cache (18000 pool/test labels not re-measured)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestGenerateEmptyDir(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(t.TempDir(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Measured results") {
		t.Fatal("empty report missing header")
	}
}

// TestTelemetrySectionBothGenerations: the report must parse the
// original ten-column telemetry artifact, the hardened-evaluation
// extension, and the current form without the retired cached_iterations
// column, rendering the guard table only when something fired.
func TestTelemetrySectionBothGenerations(t *testing.T) {
	run := func(csv string) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "telemetry.csv"), []byte(csv), 0o644); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Generate(dir, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	v1 := run("benchmark,strategy,reps,events,fit_ms,select_ms,eval_ms,retries,skips,cached_iterations\n" +
		"atax,PWU,3,45,1200.000,80.000,3400.000,2,0,44\n")
	if !strings.Contains(v1, "Run-engine telemetry") || !strings.Contains(v1, "| PWU | 45 |") {
		t.Fatalf("v1 telemetry not rendered:\n%s", v1)
	}
	if strings.Contains(v1, "Hardened evaluation") {
		t.Fatalf("v1 artifact rendered a guard table:\n%s", v1)
	}

	v2 := run("benchmark,strategy,reps,events,fit_ms,select_ms,eval_ms,retries,skips,cached_iterations," +
		"timeouts,guard_flagged,guard_remeasured,guard_quarantined,guard_cost\n" +
		"atax,PWU,3,45,1200.000,80.000,3400.000,7,0,44,3,5,4,1,12.5000\n")
	for _, want := range []string{"Run-engine telemetry", "Hardened evaluation", "| PWU | 3 | 5 | 4 | 1 | 12.500 |"} {
		if !strings.Contains(v2, want) {
			t.Fatalf("v2 report missing %q:\n%s", want, v2)
		}
	}

	v3 := run("benchmark,strategy,reps,events,fit_ms,select_ms,eval_ms,retries,skips," +
		"timeouts,guard_flagged,guard_remeasured,guard_quarantined,guard_cost\n" +
		"atax,PWU,3,45,1200.000,80.000,3400.000,7,0,3,5,4,1,12.5000\n")
	for _, want := range []string{"| PWU | 45 | 1.20 | 0.08 | 3.40 | 7 | 0 |", "| PWU | 3 | 5 | 4 | 1 | 12.500 |"} {
		if !strings.Contains(v3, want) {
			t.Fatalf("v3 report missing %q:\n%s", want, v3)
		}
	}

	quiet := run("benchmark,strategy,reps,events,fit_ms,select_ms,eval_ms,retries,skips,cached_iterations," +
		"timeouts,guard_flagged,guard_remeasured,guard_quarantined,guard_cost\n" +
		"atax,PWU,3,45,1200.000,80.000,3400.000,0,0,44,0,0,0,0,0.0000\n")
	if strings.Contains(quiet, "Hardened evaluation") {
		t.Fatalf("quiet v2 artifact rendered an empty guard table:\n%s", quiet)
	}
}

// TestCampaignSectionBothGenerations: the campaign table renders from
// both csv generations, the steal rate shows up when present, and a
// degenerate or corrupt artifact's NaN/Inf utilization renders as 0%.
func TestCampaignSectionBothGenerations(t *testing.T) {
	run := func(csv string) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "campaign.csv"), []byte(csv), 0o644); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Generate(dir, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	v1 := run("workers,tasks,steals,busy_ms,wall_ms,utilization,dataset_builds,dataset_hits,labels_saved\n" +
		"8,288,17,52000.000,7100.000,0.9155,24,120,18000\n")
	if !strings.Contains(v1, "steals: 17\n") || !strings.Contains(v1, "worker utilization: 92%") {
		t.Fatalf("v1 campaign not rendered:\n%s", v1)
	}

	v2 := run("workers,tasks,steals,busy_ms,wall_ms,utilization,dataset_builds,dataset_hits,labels_saved,steal_rate\n" +
		"8,288,17,52000.000,7100.000,0.9155,24,120,18000,0.0590\n")
	if !strings.Contains(v2, "steals: 17 (0.06 per task)") {
		t.Fatalf("v2 steal rate not rendered:\n%s", v2)
	}

	for _, bad := range []string{"NaN", "+Inf"} {
		out := run("workers,tasks,steals,busy_ms,wall_ms,utilization,dataset_builds,dataset_hits,labels_saved,steal_rate\n" +
			"0,0,0,0.000,0.000," + bad + ",0,0,0," + bad + "\n")
		if !strings.Contains(out, "worker utilization: 0%") {
			t.Fatalf("%s utilization leaked into the report:\n%s", bad, out)
		}
		if strings.Contains(out, "per task") {
			t.Fatalf("%s steal rate leaked into the report:\n%s", bad, out)
		}
	}
}
