// Command tune runs the complete auto-tuning pipeline on a benchmark:
// PWU active learning builds a surrogate from a bounded budget of real
// runs, a heuristic searcher mines the surrogate for candidates at zero
// cost, and the best verified configuration is reported.
//
// Usage:
//
//	tune -bench atax [-budget 200] [-searcher anneal] [-verify 5] [-seed 42]
//	     [-checkpoint tune.ckpt] [-every 10] [-retries 2] [-timeout 30s]
//	     [-chaos err=0.1,hang=0.01] [-pool 1000000] [-shard 1024]
//
// The candidate pool of the model phase is generated lazily and scored
// shard by shard, never materialized, so -pool can scale to production
// spaces (10^6+) with bounded memory; -shard never changes the result.
//
// With -checkpoint, the expensive model-building phase is resumable:
// SIGINT drains the current measurement, writes a snapshot, and exits
// 130; re-running the same command continues bit-identically from the
// snapshot instead of restarting the phase. A corrupt checkpoint is
// warned about and ignored for a cold start.
//
// -timeout bounds each measurement: an evaluation that outlives it is
// cut off and retried like any transient failure. -chaos injects
// deterministic faults into the model phase (see -h for the grammar),
// for drilling the failure policy.
//
// -fleet offloads every real measurement (model, verify, and baseline
// phases) to evald workers; the tuning trajectory and stdout are
// bit-identical to a local run. -fleet serve=host:port serves an
// in-process coordinator on that address (start workers with
// `evald -coordinator host:port`); -fleet URL or host:port submits to a
// resident fleetd instead — the durable variant: fleetd journals every
// evaluation, so neither its restarts nor this process's lose
// paid-for measurements.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/autotune"
	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fleet"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	benchName := flag.String("bench", "atax", "benchmark ("+strings.Join(bench.Names(), ", ")+")")
	budget := flag.Int("budget", 200, "real program runs for the surrogate")
	searchBudget := flag.Int("search", 20000, "free surrogate evaluations for the searcher")
	searcher := flag.String("searcher", "anneal", "surrogate searcher: random, hill, anneal")
	verify := flag.Int("verify", 5, "top candidates re-measured before the final pick")
	seed := flag.Uint64("seed", 42, "root seed")
	checkpoint := flag.String("checkpoint", "", "snapshot file making the model phase resumable")
	every := flag.Int("every", 10, "iterations between snapshots (with -checkpoint)")
	retries := flag.Int("retries", 0, "retry budget per failed measurement")
	warm := flag.Bool("warm", false, "refit by partial ensemble update each iteration;\nunchanged trees' scores are cached across scan iterations")
	poolSize := flag.Int("pool", 0, "unlabeled candidate pool size (0 = pipeline default)")
	shard := flag.Int("shard", 0, "candidates per scoring shard (0 = default 1024)")
	timeout := flag.Duration("timeout", 0, "per-measurement deadline; a hung run is cut off and retried (0 = none)")
	chaosSpec := flag.String("chaos", "", "fault-injection scenario for the model phase;\n"+chaos.Grammar)
	fleetTarget := flag.String("fleet", "", "offload measurements to evald workers: serve=HOST:PORT serves a coordinator,\na URL or host:port submits to a resident fleetd")
	flag.Parse()

	if err := cli.FirstError(
		cli.PositiveInt("-budget", *budget),
		cli.PositiveInt("-search", *searchBudget),
		cli.PositiveInt("-verify", *verify),
		cli.PositiveInt("-every", *every),
		cli.NonNegativeInt("-retries", *retries),
		cli.NonNegativeInt("-pool", *poolSize),
		cli.NonNegativeInt("-shard", *shard),
		cli.NonNegativeDuration("-timeout", *timeout),
	); err != nil {
		cli.Fatalf("%v", err)
	}

	p, err := bench.ByName(*benchName)
	if err != nil {
		fatal(err)
	}
	scenario, err := chaos.Parse(*chaosSpec)
	if err != nil {
		fatal(err)
	}
	cfg := autotune.Default()
	cfg.ModelBudget = *budget
	cfg.SearchBudget = *searchBudget
	cfg.Searcher = *searcher
	cfg.Verify = *verify
	cfg.CheckpointPath = *checkpoint
	cfg.CheckpointEvery = *every
	cfg.Failure = core.FailurePolicy{MaxRetries: *retries, Backoff: 100 * time.Millisecond,
		MaxBackoff: 5 * time.Second, Timeout: *timeout}
	cfg.Chaos = scenario
	cfg.StreamShard = *shard
	cfg.WarmUpdate = *warm
	if *poolSize > 0 {
		cfg.PoolSize = *poolSize
	}
	cfg.Logf = func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "tune: "+format+"\n", args...)
	}

	if *fleetTarget != "" {
		sub, closeFleet, err := fleet.Dial(*fleetTarget, log.New(os.Stderr, "tune: ", log.LstdFlags).Printf)
		if err != nil {
			cli.Fatalf("%v", err)
		}
		defer closeFleet()
		cfg.Remote = sub
	}

	fmt.Printf("tuning %s (%s)\n", p.Name(), p.Description())
	fmt.Printf("pipeline: %d real runs -> %s search x %d -> verify %d\n\n",
		cfg.ModelBudget, cfg.Searcher, cfg.SearchBudget, cfg.Verify)
	if *checkpoint != "" {
		if _, err := os.Stat(*checkpoint); err == nil {
			fmt.Printf("resuming model phase from %s\n\n", *checkpoint)
		}
	}
	if scenario.Active() {
		fmt.Printf("chaos scenario: %s\n\n", scenario)
	}

	out, err := autotune.Tune(ctx, p, cfg, *seed)
	if err != nil {
		if ctx.Err() != nil && *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "tune: interrupted; progress saved, rerun the same command to resume from %s\n", *checkpoint)
			os.Exit(cli.ExitInterrupt)
		}
		fatal(err)
	}

	fmt.Printf("best configuration (measured %.5g s, model predicted %.5g s):\n  %s\n\n",
		out.BestMeasured, out.PredictedBest, p.Space().String(out.Best))
	fmt.Printf("default configuration: %.5g s -> speedup %.2fx\n", out.BaselineMeasured, out.Speedup)
	fmt.Printf("cost: %d real runs (%.1f s of machine time), %d free surrogate evaluations\n",
		out.RealRuns, out.ModelCost, out.SearchEvaluations)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tune:", err)
	os.Exit(cli.ExitCode(err))
}
