package forest

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

// splitThresholds collects every numeric split (feature, threshold) of
// the forest's trees from their JSON dumps.
func splitThresholds(t *testing.T, f *Forest) (fs []int, ts []float64) {
	t.Helper()
	type dump struct {
		F  int     `json:"f"`
		T  float64 `json:"t"`
		CL []int   `json:"cl"`
		L  *dump   `json:"l"`
		R  *dump   `json:"r"`
	}
	var walk func(d *dump)
	walk = func(d *dump) {
		if d == nil || d.L == nil {
			return
		}
		if d.CL == nil {
			fs = append(fs, d.F)
			ts = append(ts, d.T)
		}
		walk(d.L)
		walk(d.R)
	}
	for _, tr := range f.trees {
		data, err := tr.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var td struct {
			Root *dump `json:"root"`
		}
		if err := json.Unmarshal(data, &td); err != nil {
			t.Fatal(err)
		}
		walk(td.Root)
	}
	return fs, ts
}

// adversarialProbes derives probe rows from base rows: NaN of both
// signs, the infinities and both zeros in every column, negative,
// fractional and out-of-range category codes in every column, and every
// split threshold with its one-ulp neighbours in its own column.
func adversarialProbes(t *testing.T, f *Forest, base [][]float64, r *rng.RNG) [][]float64 {
	var out [][]float64
	with := func(col int, v float64) {
		row := append([]float64(nil), base[r.Intn(len(base))]...)
		row[col] = v
		out = append(out, row)
	}
	specials := []float64{
		math.NaN(), math.Float64frombits(0xFFF8000000000001), math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1), math.MaxFloat64, -math.SmallestNonzeroFloat64,
		-1, -0.5, 0.5, 5, 6, 6.5, 1e300,
	}
	for col := range base[0] {
		for _, v := range specials {
			with(col, v)
		}
	}
	fs, ts := splitThresholds(t, f)
	for i, th := range ts {
		with(fs[i], th)
		with(fs[i], math.Nextafter(th, math.Inf(-1)))
		with(fs[i], math.Nextafter(th, math.Inf(1)))
	}
	return append(out, base...)
}

// sameBits reports whether two float64 values are bit-identical.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestExactKernelsBitIdentical is the keyed lane walk's bit-identity
// gate on adversarial rows: ScoreBatch, ScoreSlots + AggregateSlots and
// PredictBatch must each equal
// PredictWithUncertainty bit for bit, which must equal the pointer-tree
// reference — numeric-only and categorical forests, a forest of
// single-leaf trees, both σ estimators, and every batch length
// n mod 8 = 1..7.
func TestExactKernelsBitIdentical(t *testing.T) {
	numX, numY := friedman(rng.New(91), 150)
	mixFs := []space.Feature{
		{Name: "x", Kind: space.FeatNumeric},
		{Name: "c", Kind: space.FeatCategorical, NumCategories: 6},
		{Name: "z", Kind: space.FeatNumeric},
	}
	r := rng.New(92)
	mixX := make([][]float64, 150)
	mixY := make([]float64, len(mixX))
	for i := range mixX {
		c := r.Intn(6)
		mixX[i] = []float64{r.Float64(), float64(c), r.Norm()}
		mixY[i] = mixX[i][0] + float64(c%3)*4 + mixX[i][2]
	}
	constY := make([]float64, len(numY))
	for i := range constY {
		constY[i] = -3.25
	}
	cases := []struct {
		name string
		X    [][]float64
		y    []float64
		fs   []space.Feature
		cfg  Config
	}{
		{"numeric", numX, numY, numFeatures(7), Config{NumTrees: 12}},
		{"categorical", mixX, mixY, mixFs, Config{NumTrees: 12, Uncertainty: TotalVariance, Workers: 3}},
		{"single-leaf", numX, constY, numFeatures(7), Config{NumTrees: 5}},
	}
	for ci, tc := range cases {
		f, err := Fit(tc.X, tc.y, tc.fs, tc.cfg, rng.New(uint64(93+ci)))
		if err != nil {
			t.Fatal(err)
		}
		probes := adversarialProbes(t, f, tc.X[:30], rng.New(uint64(96+ci)))
		wantMu := make([]float64, len(probes))
		wantSigma := make([]float64, len(probes))
		for i, x := range probes {
			wantMu[i], wantSigma[i] = f.PredictWithUncertainty(x)
			rm, rs := f.predictReference(x)
			if !sameBits(rm, wantMu[i]) || !sameBits(rs, wantSigma[i]) {
				t.Fatalf("%s probe %d %v: flat (%v,%v) pointer (%v,%v)", tc.name, i, x, wantMu[i], wantSigma[i], rm, rs)
			}
		}
		check := func(api string, n int, mu, sigma []float64) {
			t.Helper()
			for i := 0; i < n; i++ {
				if !sameBits(mu[i], wantMu[i]) || !sameBits(sigma[i], wantSigma[i]) {
					t.Fatalf("%s %s n=%d row %d %v: (%v,%v), PredictWithUncertainty (%v,%v)",
						tc.name, api, n, i, probes[i], mu[i], sigma[i], wantMu[i], wantSigma[i])
				}
			}
		}
		b := f.NumSlots()
		slots := make([]int, b)
		for s := range slots {
			slots[s] = s
		}
		for tail := 0; tail < 8; tail++ {
			n := len(probes)/8*8 - 8 + tail
			if tail == 0 {
				n = len(probes)
			}
			X := probes[:n]
			mu, sigma := make([]float64, n), make([]float64, n)
			f.ScoreBatch(X, mu, sigma)
			check("ScoreBatch", n, mu, sigma)

			mean, lvar := make([][]float64, n), make([][]float64, n)
			for i := range mean {
				mean[i], lvar[i] = make([]float64, b), make([]float64, b)
			}
			f.ScoreSlots(X, slots[:b/2], mean, lvar)
			f.ScoreSlots(X, slots[b/2:], mean, lvar)
			f.AggregateSlots(mean, lvar, mu, sigma)
			check("ScoreSlots+AggregateSlots", n, mu, sigma)

			mu, sigma = f.PredictBatch(X)
			check("PredictBatch", n, mu, sigma)

		}
	}
}
