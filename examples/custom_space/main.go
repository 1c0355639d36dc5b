// Custom space: use the library on your own tuning problem. Nothing in
// the active-learning machinery knows about SPAPT — any code that can
// map a configuration to a measured time plugs in through the Evaluator
// interface.
//
// Here the "application" is a toy blocked matrix transpose whose runtime
// we synthesize inline (block size sweet spot, a parallelism knob with
// diminishing returns, a NUMA placement flag), but the Evaluate function
// is exactly where you would exec your real program and time it.
//
// Run with:
//
//	go run ./examples/custom_space
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
	// 1. Describe the tunable parameters.
	sp := altune.MustNewSpace(
		altune.Num("block", 8, 16, 32, 64, 128, 256),
		altune.NumRange("threads", 1, 16, 1),
		altune.Cat("placement", "compact", "scatter", "none"),
		altune.Bool("hugepages"),
	)
	fmt.Printf("custom space: %d parameters, %s configurations\n\n",
		sp.NumParams(), cardinality(sp))

	// 2. Provide the annotator. Replace the body with "run the program,
	// return wall seconds" for a real application. The evaluator receives
	// the run's context: return ctx.Err() once it is done, and a non-nil
	// error when a measurement fails.
	ev := altune.EvaluatorFunc(func(ctx context.Context, c altune.Config) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		block := sp.ValueByName(c, "block")
		threads := sp.ValueByName(c, "threads")
		placement := sp.NameOf(c, sp.IndexOf("placement"))
		huge := sp.ValueByName(c, "hugepages") != 0

		// Block-size sweet spot around 64.
		work := 4.0 * (1 + math.Abs(math.Log2(block/64))*0.35)
		// Parallel speedup with sync overhead past 8 threads.
		speedup := threads / (1 + 0.08*threads*threads/8)
		t := work / speedup
		if placement == "scatter" {
			t *= 0.85 // better memory bandwidth
		} else if placement == "none" {
			t *= 1.1 // OS migration noise
		}
		if huge {
			t *= 0.93
		}
		return t + 0.05, nil
	})

	// 3. Active learning with PWU.
	pool := sp.SampleConfigs(altune.NewRNG(1), 2000)
	var history []int
	res, err := altune.Run(ctx, sp, pool, ev, altune.PWU{Alpha: 0.05},
		altune.Params{NInit: 10, NBatch: 5, NMax: 120,
			Forest: altune.ForestConfig{NumTrees: 48}},
		altune.NewRNG(2),
		func(st *altune.State) error {
			history = append(history, len(st.TrainY))
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("labeled %d configurations over %d model refits\n", len(res.TrainY), len(history))

	// 4. Exploit the model: rank the whole pool by predicted time.
	pred, sigma := res.Model.PredictBatch(sp.EncodeAll(pool))
	best, bestV := 0, pred[0]
	for i, v := range pred {
		if v < bestV {
			best, bestV = i, v
		}
	}
	actual, err := ev.Evaluate(ctx, pool[best])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecommended: %s\n", sp.String(pool[best]))
	fmt.Printf("predicted %.3f s (sigma %.3f), actual %.3f s, default (first sample) %.3f s\n",
		bestV, sigma[best], actual, res.TrainY[0])

	// 5. Which parameters did the model find important? FeatureUsage is
	// forest-specific, so assert down from the surrogate interface.
	fmt.Println("\nsplit share per parameter (feature usage):")
	for i, u := range res.Model.(*altune.Forest).FeatureUsage() {
		fmt.Printf("  %-10s %5.1f%%\n", sp.Param(i).Name, u*100)
	}
}

func cardinality(sp *altune.Space) string {
	if n, ok := sp.Cardinality(); ok {
		return fmt.Sprint(n)
	}
	return fmt.Sprintf("10^%.1f", sp.LogCardinality())
}
