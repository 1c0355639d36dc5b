package altune_test

import (
	"context"
	"fmt"

	"repro/altune"
)

// ExampleRun shows the paper's Algorithm 1 on a custom tuning problem:
// declare a space, provide an evaluator, and let PWU choose which
// configurations to measure.
func ExampleRun() {
	sp := altune.MustNewSpace(
		altune.Num("threads", 1, 2, 4, 8),
		altune.Bool("pin"),
	)
	ev := altune.EvaluatorFunc(func(ctx context.Context, c altune.Config) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		t := 8 / sp.ValueByName(c, "threads")
		if sp.ValueByName(c, "pin") != 0 {
			t *= 0.9
		}
		return t + 0.1, nil
	})
	pool := sp.SampleConfigs(altune.NewRNG(1), 50)
	res, err := altune.Run(context.Background(), sp, pool, ev, altune.PWU{Alpha: 0.1},
		altune.Params{NInit: 5, NBatch: 5, NMax: 25,
			Forest: altune.ForestConfig{NumTrees: 16}},
		altune.NewRNG(2), nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("labeled:", len(res.TrainY))
	// Output:
	// labeled: 25
}

// ExamplePWU demonstrates the paper's Eq. 1 score directly: at equal
// uncertainty the faster (smaller μ) configuration scores higher, and at
// equal performance the more uncertain one does.
func ExamplePWU() {
	s := altune.PWU{Alpha: 0.05}
	fast, slow := s.Score(0.5, 0.1), s.Score(5.0, 0.1)
	fmt.Println("fast beats slow:", fast > slow)
	sure, unsure := s.Score(1, 0.05), s.Score(1, 0.5)
	fmt.Println("uncertain beats certain:", unsure > sure)
	// Output:
	// fast beats slow: true
	// uncertain beats certain: true
}

// ExampleBenchmark lists the paper's evaluation suite.
func ExampleBenchmark() {
	p, _ := altune.Benchmark("adi")
	fmt.Println(p.Name(), "on platform", p.Platform().Name)
	fmt.Println("benchmarks:", len(altune.Benchmarks()))
	// Output:
	// adi on platform A
	// benchmarks: 14
}

// ExampleRMSEAtAlpha computes the paper's Eq. 2 metric: error over the
// fastest ⌊nα⌋ samples only.
func ExampleRMSEAtAlpha() {
	y := []float64{1, 2, 100, 200} // two fast, two slow configurations
	pred := []float64{1, 2, 50, 50}
	fmt.Printf("top-half RMSE: %.1f\n", altune.RMSEAtAlpha(y, pred, 0.5))
	// Output:
	// top-half RMSE: 0.0
}
