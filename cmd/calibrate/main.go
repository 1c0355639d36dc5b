// Command calibrate reports how honest a surrogate's uncertainty
// estimates are on a benchmark: train with PWU active learning, then
// compare held-out residuals against the claimed σ for both forest
// estimators and the Gaussian-process comparator.
//
// Usage:
//
//	calibrate -bench atax [-labels 200] [-seed 42]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/bench"
	"repro/internal/calibration"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/forest"
	"repro/internal/gp"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	benchName := flag.String("bench", "atax", "benchmark ("+strings.Join(bench.Names(), ", ")+")")
	labels := flag.Int("labels", 200, "training labels (PWU active learning)")
	seed := flag.Uint64("seed", 42, "root seed")
	flag.Parse()

	if err := cli.PositiveInt("-labels", *labels); err != nil {
		cli.Fatalf("%v", err)
	}

	p, err := bench.ByName(*benchName)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("calibration of surrogate uncertainty on %s (%d labels)\n", p.Name(), *labels)
	fmt.Printf("gaussian ideals: %.1f%% within 1 sigma, %.1f%% within 2 sigma\n\n",
		calibration.GaussianIdeal1*100, calibration.GaussianIdeal2*100)

	type variant struct {
		name   string
		fitter core.Fitter
	}
	variants := []variant{
		{"forest/between-trees", fitterFor(forest.Config{NumTrees: 64, Uncertainty: forest.BetweenTrees})},
		{"forest/total-variance", fitterFor(forest.Config{NumTrees: 64, Uncertainty: forest.TotalVariance})},
		{"gaussian process", func(X [][]float64, y []float64, fs []space.Feature, r *rng.RNG) (core.Model, error) {
			return gp.Fit(X, y, fs, gp.Config{}, r)
		}},
	}
	for _, v := range variants {
		r := rng.New(*seed)
		ds, err := dataset.Build(ctx, p, 1500, 600, r.Split())
		if err != nil {
			fatal(err)
		}
		res, err := core.Run(ctx, pool.NewSlice(p.Space(), ds.Pool), bench.Evaluator(p, r.Split()), core.PWU{Alpha: 0.05},
			core.Params{NInit: 10, NBatch: 5, NMax: *labels, Fitter: v.fitter}, r.Split(), nil)
		if err != nil {
			fatal(err)
		}
		mu, sigma := res.Model.PredictBatch(ds.TestX())
		rep, err := calibration.Evaluate(ds.TestY, mu, sigma)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-22s %s\n", v.name, rep)
	}
}

func fitterFor(cfg forest.Config) core.Fitter {
	return func(X [][]float64, y []float64, fs []space.Feature, r *rng.RNG) (core.Model, error) {
		return forest.Fit(X, y, fs, cfg, r)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "calibrate:", err)
	os.Exit(cli.ExitCode(err))
}
