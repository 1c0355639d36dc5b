package forest

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

func benchForest(b *testing.B) (*Forest, [][]float64) {
	sp, err := space.New(
		space.NumRange("p1", 1, 32, 1), space.NumRange("p2", 1, 32, 1),
		space.NumRange("p3", 1, 16, 1), space.NumRange("p4", 1, 16, 1),
		space.Num("p5", 1, 2, 4, 8, 16, 32), space.Bool("p6"),
		space.NumRange("p7", 0, 512, 16), space.NumRange("p8", 0, 512, 16),
	)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	train := sp.SampleConfigs(r, 200)
	X := sp.EncodeAll(train)
	y := make([]float64, len(X))
	for i := range y {
		y[i] = float64(i%7) + X[i][0]
	}
	f, err := Fit(X, y, sp.Features(), Config{NumTrees: 64, Workers: 1}, r.Split())
	if err != nil {
		b.Fatal(err)
	}
	probe := sp.EncodeAll(sp.SampleConfigs(r, 1024))
	return f, probe
}

func BenchmarkScoreBatchExact(b *testing.B) {
	f, X := benchForest(b)
	mu, sg := make([]float64, len(X)), make([]float64, len(X))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ScoreBatch(X, mu, sg)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(X)), "ns/row")
}
