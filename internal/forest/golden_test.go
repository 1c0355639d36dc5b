package forest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/tree"
)

// goldenSpace draws n rows over two numeric columns (the first on a
// grid through -0, 0 and negative values, so some thresholds land on
// zero and their "t" is omitted) and two categorical columns, one wider
// than a bitmap word.
func goldenSpace(r *rng.RNG, n int) (X [][]float64, y []float64, fs []space.Feature) {
	fs = []space.Feature{
		{Name: "g", Kind: space.FeatNumeric},
		{Name: "u", Kind: space.FeatNumeric},
		{Name: "c", Kind: space.FeatCategorical, NumCategories: 5},
		{Name: "w", Kind: space.FeatCategorical, NumCategories: 70},
	}
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		g := 0.5 * float64(r.Intn(7)-3)
		if g == 0 && r.Bool(0.5) {
			g = math.Copysign(0, -1)
		}
		c, w := r.Intn(5), r.Intn(70)
		X[i] = []float64{g, r.Float64()*20 - 10, float64(c), float64(w)}
		y[i] = 3*g + math.Sin(X[i][1]) + float64(c%2)*4 + float64(w%3) + 0.2*r.Norm()
	}
	return X, y, fs
}

// TestForestWireGolden pins the forest wire bytes (AppendJSON) of seeded
// forests the session goldens do not reach — leaf targets on a
// categorical space, a TotalVariance forest, and a warm-updated forest
// with a nonzero rotation cursor — by sha256. The constants were
// captured on the pointer-tree encoder, so any change to how a fitted
// tree is built, stored or written that moves a byte fails here.
func TestForestWireGolden(t *testing.T) {
	cases := []struct {
		name string
		want string
		fit  func() (*Forest, error)
		has  []string // wire fields the case exists to cover
	}{
		{"keep-targets-categorical", "67c6b689f49b574627011d48636334ba765378f41bdfc92a0e033dc480ab067b", func() (*Forest, error) {
			X, y, fs := goldenSpace(rng.New(201), 160)
			return Fit(X, y, fs, Config{NumTrees: 6, Tree: tree.Config{KeepTargets: true, MinSamplesLeaf: 2}}, rng.New(202))
		}, []string{`"ts":[`, `"cl":[`, `"nc":70`}},
		{"total-variance", "6ebbd84688a7afa253441753c460fb5b29d19efc4a31877bba7cc705cffae452", func() (*Forest, error) {
			X, y, fs := goldenSpace(rng.New(203), 220)
			return Fit(X, y, fs, Config{NumTrees: 9, Uncertainty: TotalVariance, Tree: tree.Config{MaxFeatures: 2, MaxDepth: 7}}, rng.New(204))
		}, []string{`"Uncertainty":1`, `"nc":5`}},
		{"warm-updated", "b679f9d9a175974850f60ace7181fcc29edb4f1f263f95278ffa2def0ac75107", func() (*Forest, error) {
			X, y, fs := goldenSpace(rng.New(205), 260)
			f, err := Fit(X[:120], y[:120], fs, Config{NumTrees: 10, Tree: tree.Config{MaxFeatures: 3}}, rng.New(206))
			if err != nil {
				return nil, err
			}
			for i, n := range []int{180, 260} {
				if err := f.Update(X[:n], y[:n], rng.New(uint64(207+i))); err != nil {
					return nil, err
				}
			}
			if f.nextRefresh == 0 {
				t.Fatal("warm-updated forest has a zero rotation cursor")
			}
			return f, nil
		}, []string{`"next_refresh":4`}},
	}
	for _, tc := range cases {
		f, err := tc.fit()
		if err != nil {
			t.Fatal(err)
		}
		b, err := f.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range tc.has {
			if !bytes.Contains(b, []byte(h)) {
				t.Errorf("%s: wire form lacks %s", tc.name, h)
			}
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: wire sha256 %s (%d bytes), want %s", tc.name, got, len(b), tc.want)
		}
	}
}
