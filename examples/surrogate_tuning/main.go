// Surrogate tuning (the paper's Fig. 8 case study): build a surrogate
// model of the atax kernel with PWU active learning, then tune the
// kernel twice — once against the real (simulated) machine and once
// against the surrogate — and compare both the quality of the result and
// the cost of getting there.
//
// Run with:
//
//	go run ./examples/surrogate_tuning
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/altune"
)

func main() {
	ctx := context.Background()
	p, err := altune.Benchmark("atax")
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: active learning builds the surrogate. This is the only
	// part that pays real execution cost.
	r := altune.NewRNG(2024)
	ds, err := altune.BuildDataset(ctx, p, 1500, 500, r)
	if err != nil {
		log.Fatal(err)
	}
	res, err := altune.Run(
		ctx, p.Space(), ds.Pool,
		altune.BenchmarkEvaluator(p, altune.NewRNG(1)),
		altune.PWU{Alpha: 0.05},
		altune.Params{NInit: 10, NBatch: 5, NMax: 250,
			Forest: altune.ForestConfig{NumTrees: 64}},
		altune.NewRNG(2), nil)
	if err != nil {
		log.Fatal(err)
	}
	buildCost := altune.CumulativeCost(res.TrainY)
	fmt.Printf("surrogate built from %d labels, costing %.1f s of machine time\n\n",
		len(res.TrainY), buildCost)

	// Phase 2: tune over a fresh candidate set with both annotators.
	// Tuning is Algorithm 1 with the greedy BestPerf strategy and one
	// label per iteration; only the annotator differs. The surrogate
	// annotator labels with the model's prediction instead of running
	// the kernel.
	sp := p.Space()
	cands := sp.SampleConfigs(altune.NewRNG(3), 800)
	const nInit, iterations = 10, 120
	params := altune.Params{NInit: nInit, NBatch: 1, NMax: nInit + iterations,
		Forest: altune.ForestConfig{NumTrees: 32}}
	surrogateAnnotator := altune.EvaluatorFunc(func(_ context.Context, c altune.Config) (float64, error) {
		return res.Model.Predict(sp.Encode(c)), nil
	})

	directRun, err := altune.Run(ctx, sp, cands, altune.BenchmarkEvaluator(p, altune.NewRNG(4)),
		altune.BestPerf{}, params, altune.NewRNG(5), nil)
	if err != nil {
		log.Fatal(err)
	}
	surrogateRun, err := altune.Run(ctx, sp, cands, surrogateAnnotator,
		altune.BestPerf{}, params, altune.NewRNG(5), nil)
	if err != nil {
		log.Fatal(err)
	}
	direct, _ := bestSoFar(p, directRun, nInit)
	surrogate, surrogateBest := bestSoFar(p, surrogateRun, nInit)

	fmt.Printf("%-18s %16s %16s\n", "iteration", "direct best (s)", "surrogate best (s)")
	for _, it := range []int{0, 10, 20, 40, 80, 120} {
		fmt.Printf("%-18d %16.4f %16.4f\n", it, direct[it], surrogate[it])
	}

	dBest := direct[len(direct)-1]
	sBest := surrogate[len(surrogate)-1]
	fmt.Printf("\nfinal best: direct %.4f s, surrogate %.4f s (ratio %.2f)\n", dBest, sBest, sBest/dBest)
	fmt.Printf("direct tuning executed the kernel %d times; surrogate tuning executed it 0 times\n",
		len(directRun.TrainY))
	fmt.Printf("\nbest configuration found via surrogate:\n  %s\n", sp.String(surrogateBest))
}

// bestSoFar reads a tuning run's curve: the true time of the best
// configuration labeled so far after the cold start (point 0) and after
// each tuning iteration, plus that best configuration. The true time is
// used whatever the annotator labeled with.
func bestSoFar(p altune.Problem, res *altune.Result, nInit int) ([]float64, altune.Config) {
	var curve []float64
	var bestCfg altune.Config
	best := math.Inf(1)
	for i, c := range res.TrainConfigs {
		if t := p.TrueTime(c); t < best {
			best, bestCfg = t, c
		}
		if i >= nInit-1 {
			curve = append(curve, best)
		}
	}
	return curve, bestCfg
}
