package tree

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

var (
	negNaN  = math.Float64frombits(0xFFF8000000000001)
	posNaN  = math.Float64frombits(0x7FF0000000000001)
	negZero = math.Copysign(0, -1)
)

// specialValues are the routing edge cases every keyed walk must send
// where the float compare does: NaN of both signs (and payloads), the
// infinities, both zeros, the extremes and the subnormals.
var specialValues = []float64{
	math.NaN(), negNaN, posNaN, math.Inf(1), math.Inf(-1), 0, negZero,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 1, -1,
}

// checkKeyOrder asserts the key contract on one (x, t) pair.
func checkKeyOrder(t *testing.T, x, th float64) {
	t.Helper()
	if got, want := Key(x) <= Key(th), x <= th; got != want {
		t.Fatalf("x=%v (%#x) t=%v (%#x): key compare %v, float compare %v",
			x, math.Float64bits(x), th, math.Float64bits(th), got, want)
	}
}

// TestKeyOrder pins the order-preserving key on the edge-case grid:
// every special value against every special (non-NaN) threshold and its
// one-ulp neighbours, plus the leaf-key and round-trip invariants.
func TestKeyOrder(t *testing.T) {
	for _, th := range specialValues {
		if th != th {
			continue
		}
		for _, tt := range []float64{th, math.Nextafter(th, math.Inf(-1)), math.Nextafter(th, math.Inf(1))} {
			for _, x := range specialValues {
				checkKeyOrder(t, x, tt)
				checkKeyOrder(t, x, -tt)
			}
			checkKeyOrder(t, tt, th)
		}
	}
	for _, v := range specialValues {
		if Key(v) == 0 {
			t.Fatalf("Key(%v) = 0 collides with the leaf key", v)
		}
		if v == v && keyValue(Key(v)) != v {
			t.Fatalf("keyValue(Key(%v)) = %v", v, keyValue(Key(v)))
		}
	}
	if k := keyValue(Key(math.NaN())); k == k {
		t.Fatalf("NaN key decodes to %v", k)
	}
	if Key(negZero) != Key(0) {
		t.Fatal("the zeros key differently")
	}
}

// FuzzKeyOrder: for any float64 x and any finite threshold t,
// x <= t exactly when Key(x) <= Key(t) — the property that
// makes the keyed walks route bit-identically to the float walk. The
// committed corpus (testdata/fuzz/FuzzKeyOrder) holds NaN payloads of
// both signs, the zeros, the infinities, subnormals and one-ulp pairs.
func FuzzKeyOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, xb, tb uint64) {
		x, th := math.Float64frombits(xb), math.Float64frombits(tb)
		if math.IsNaN(th) || math.IsInf(th, 0) {
			t.Skip()
		}
		checkKeyOrder(t, x, th)
		checkKeyOrder(t, th, th)
		checkKeyOrder(t, math.Nextafter(th, math.Inf(-1)), th)
		checkKeyOrder(t, math.Nextafter(th, math.Inf(1)), th)
	})
}

// keyGroups keys rows into Leaf8T's 8-row feature-major groups, padding
// a ragged final group with copies of its last row.
func keyGroups(rows [][]float64, d int) []uint64 {
	ng := (len(rows) + 7) / 8
	xk := make([]uint64, ng*8*d)
	for j := 0; j < ng*8; j++ {
		row := rows[len(rows)-1]
		if j < len(rows) {
			row = rows[j]
		}
		KeyRowStride(row, xk[(j/8)*8*d+j%8:], 8)
	}
	return xk
}

// thresholdsOf returns every numeric split's (feature, threshold).
func thresholdsOf(c *Regressor) (fs []int32, ts []float64) {
	for _, nd := range c.nodes {
		if !nd.isLeaf() && nd.feat&catFlag == 0 {
			fs = append(fs, nd.feature())
			ts = append(ts, keyValue(nd.key))
		}
	}
	return fs, ts
}

// adversarialRows derives probe rows from base rows: every special value
// and every out-of-range, negative or fractional category code in every
// column, and every split threshold with its one-ulp neighbours in its
// own column.
func adversarialRows(c *Regressor, base [][]float64, r *rng.RNG) [][]float64 {
	var out [][]float64
	with := func(f int, v float64) {
		row := append([]float64(nil), base[r.Intn(len(base))]...)
		row[f] = v
		out = append(out, row)
	}
	d := len(base[0])
	codes := []float64{-1, -0.5, 0.5, 4.99, 5, 69, 70, 70.5, 1e300, -1e300, 1 << 40}
	for f := 0; f < d; f++ {
		for _, v := range specialValues {
			with(f, v)
		}
		for _, v := range codes {
			with(f, v)
		}
	}
	fs, ts := thresholdsOf(c)
	for i, th := range ts {
		with(int(fs[i]), th)
		with(int(fs[i]), math.Nextafter(th, math.Inf(-1)))
		with(int(fs[i]), math.Nextafter(th, math.Inf(1)))
	}
	// Whole rows of special values.
	for i := 0; i < 20; i++ {
		row := make([]float64, d)
		for f := range row {
			row[f] = specialValues[r.Intn(len(specialValues))]
		}
		out = append(out, row)
	}
	return append(out, base...)
}

// TestLeaf8TBitIdentical: the scalar walk (PredictStats) and the
// eight-lane transposed keyed walk (Leaf8T) must land every adversarial
// row in the leaf the pointer oracle does — numeric-only and categorical
// trees, a lone-leaf tree, and every ragged group length n mod 8 = 1..7.
func TestLeaf8TBitIdentical(t *testing.T) {
	mixX, mixY, mixFs := mixedData(rng.New(41), 300)
	numFs := mixFs[:2]
	numX := make([][]float64, len(mixX))
	for i, row := range mixX {
		numX[i] = row[:2]
	}
	constY := make([]float64, len(mixY))
	for i := range constY {
		constY[i] = 2.5
	}
	cases := []struct {
		name string
		X    [][]float64
		y    []float64
		fs   []space.Feature
		cfg  Config
	}{
		{"mixed", mixX, mixY, mixFs, Config{}},
		{"mixed-shallow", mixX, mixY, mixFs, Config{MaxDepth: 3}},
		{"numeric", numX, mixY, numFs, Config{MinSamplesLeaf: 2}},
		{"single-leaf", mixX, constY, mixFs, Config{}},
	}
	for ci, tc := range cases {
		tr, err := Fit(tc.X, tc.y, tc.fs, tc.cfg, rng.New(uint64(50+ci)))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := FitReference(tc.X, tc.y, tc.fs, tc.cfg, rng.New(uint64(50+ci)))
		if err != nil {
			t.Fatal(err)
		}
		if tc.name == "single-leaf" && (len(tr.nodes) != 1 || tr.Depth() != 0) {
			t.Fatalf("constant target built %d nodes, depth %d", len(tr.nodes), tr.Depth())
		}
		if !nodesEqual(ref.root, tr) {
			t.Fatalf("%s: flat tree differs from the oracle", tc.name)
		}
		rows := adversarialRows(tr, tc.X[:40], rng.New(uint64(60+ci)))
		for tail := 0; tail < 8; tail++ {
			sub := rows[:len(rows)/8*8-8+tail]
			if tail == 0 {
				sub = rows
			}
			checkAgainstOracle(t, fmt.Sprintf("%s n=%d", tc.name, len(sub)), tr, ref, sub)
		}
	}
}
