// Command report summarises a cmd/figures output directory as Markdown:
// per-benchmark endpoints, PWU-vs-PBUS speedups and tuning results.
// With -bench-pool it instead renders the latest recorded streaming-pool
// benchmark entries (BENCH_pool.json, written by `make bench-pool`);
// with -bench-campaign, the campaign-drain trajectory
// (BENCH_campaign.json, written by `make bench-campaign`) with the
// fleet transport's overhead over the local drain; with -bench-train,
// the latest training-engine entries (BENCH_train.json, written by
// `make bench-train`) with each benchmark's speedup over the previous
// commit.
// With -service it renders a tuned daemon's /stats dump as a Service
// section (`curl host:8080/stats > stats.json; report -service stats.json`).
//
// Usage:
//
//	report [-dir out] [-o results.md]
//	report -bench-pool BENCH_pool.json
//	report -bench-campaign BENCH_campaign.json
//	report -bench-train BENCH_train.json
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
	benchPool := flag.String("bench-pool", "", "render the latest entries of a bench-pool JSON trajectory instead")
	benchCampaign := flag.String("bench-campaign", "", "render a bench-campaign JSON trajectory instead")
	benchTrain := flag.String("bench-train", "", "render the latest entries of a bench-train JSON trajectory instead")
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
	if *benchPool != "" {
		if err := report.BenchPool(*benchPool, w); err != nil {
			fatal(err)
		}
		return
	}
	if *benchCampaign != "" {
		if err := report.BenchCampaign(*benchCampaign, w); err != nil {
			fatal(err)
		}
		return
	}
	if *benchTrain != "" {
		if err := report.BenchTrain(*benchTrain, w); err != nil {
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
