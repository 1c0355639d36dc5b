// Command report summarises a cmd/figures output directory as Markdown:
// per-benchmark endpoints, PWU-vs-PBUS speedups and tuning results.
// With -bench it instead renders a benchmark trajectory — BENCH_pool.json,
// BENCH_train.json, BENCH_campaign.json or BENCH_checkpoint.json,
// written by `make bench-pool`, `make bench-train`, `make bench-campaign`
// and `make bench-checkpoint` in one entry schema (report.BenchEntry):
// the newest entry per (bench, key, workload params, workers) with
// its per-core value, B/op, allocs/op, params and commit, then each
// one's speedup over the previous commit.
// With -service it renders a tuned daemon's /stats dump as a Service
// section (`curl host:8080/stats > stats.json; report -service stats.json`).
//
// Usage:
//
//	report [-dir out] [-o results.md]
//	report -bench BENCH_pool.json
//	report -service stats.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
	"repro/internal/report"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	_ = ctx // report generation is file-bound and instantaneous

	dir := flag.String("dir", "out", "cmd/figures output directory")
	out := flag.String("o", "", "write to file instead of stdout")
	bench := flag.String("bench", "", "render the newest entries of a BENCH_*.json trajectory instead")
	service := flag.String("service", "", "render a tuned daemon /stats dump instead")
	flag.Parse()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if *bench != "" {
		if err := report.Bench(*bench, w); err != nil {
			fatal(err)
		}
		return
	}
	if *service != "" {
		if err := report.Service(*service, w); err != nil {
			fatal(err)
		}
		return
	}
	if err := report.Generate(*dir, w); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "report:", err)
	os.Exit(cli.ExitCode(err))
}
