package tree

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

// leafOf walks the exact compiled tree to its leaf node id — the
// quantized form preserves the preorder layout, so leaf ids are directly
// comparable between the two engines.
func leafOf(c *Compiled, x []float64) int32 { return c.leaf(x) }

func leafOfQ(c *CompiledQ, x []float64) int32 {
	xq := make([]int32, len(x))
	QuantizeRow(x, xq)
	return c.Leaf(xq)
}

// TestQThresholdMonotone pins the rounding contract of the threshold
// quantizer: the result is the largest float32 not exceeding the exact
// threshold, so float32 inputs compare identically against both.
func TestQThresholdMonotone(t *testing.T) {
	r := rng.New(7)
	probe := func(v float64) {
		q := qThreshold(v)
		if float64(q) > v {
			t.Fatalf("qThreshold(%g) = %g rounds up", v, q)
		}
		if up := math.Nextafter32(q, float32(math.Inf(1))); float64(up) <= v {
			t.Fatalf("qThreshold(%g) = %g is not the largest float32 <= it (%g also fits)", v, q, up)
		}
	}
	for i := 0; i < 100000; i++ {
		v := (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(13)-6))
		probe(v)
	}
	probe(0)
	probe(1.5)
	probe(-1.5)
	probe(float64(math.MaxFloat32) * 2) // rounds to +Inf32, adjusted down
}

// TestQuantRoutesTrainingRowsIdentically is the monotonicity guarantee
// of the quantized engine: on spaces whose encoded values are exactly
// float32-representable (integer grids, powers of two, halves — every
// space the paper tunes), each training row reaches the same leaf in the
// quantized tree as in the exact tree, over randomized forests of mixed
// numeric/categorical schemas.
func TestQuantRoutesTrainingRowsIdentically(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		fs := []space.Feature{
			{Name: "a", Kind: space.FeatNumeric},
			{Name: "b", Kind: space.FeatNumeric},
			{Name: "c", Kind: space.FeatCategorical, NumCategories: 5},
			{Name: "d", Kind: space.FeatCategorical, NumCategories: 70},
		}
		n := 120 + int(seed)*17
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			// Float32-exact level values: small integers, halves and
			// powers of two, the shapes space.Space encodings produce.
			X[i] = []float64{
				float64(r.Intn(64)) / 2,
				math.Pow(2, float64(r.Intn(12))),
				float64(r.Intn(5)),
				float64(r.Intn(70)),
			}
			y[i] = X[i][0]*3 + X[i][1]/100 + float64(int(X[i][2])%2)*5 + r.Norm()
		}
		tr, err := Fit(X, y, fs, Config{}, rng.New(seed+100))
		if err != nil {
			t.Fatal(err)
		}
		c := tr.Compile()
		q, err := c.Quantize()
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range X {
			le, lq := leafOf(c, x), leafOfQ(q, x)
			if le != lq {
				t.Fatalf("seed %d row %d: exact leaf %d, quantized leaf %d", seed, i, le, lq)
			}
		}
	}
}

// TestQuantStatsErrorBounds bounds the quantized leaf statistics against
// the exact engine on rows that route identically: the only error source
// is float32 rounding of the leaf mean and variance, so the relative
// mean error is at most one float32 ulp (~1.2e-7) and the variance error
// likewise.
func TestQuantStatsErrorBounds(t *testing.T) {
	r := rng.New(3)
	X, y, fs := mixedData(r, 500)
	for _, cfg := range []Config{{}, {MaxDepth: 4}, {MinSamplesLeaf: 9}} {
		tr, err := Fit(X, y, fs, cfg, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		c := tr.Compile()
		q, err := c.Quantize()
		if err != nil {
			t.Fatal(err)
		}
		probes, _, _ := mixedData(rng.New(11), 400)
		for i, x := range probes {
			if leafOf(c, x) != leafOfQ(q, x) {
				continue // routing divergence is bounded separately
			}
			me, ve, ce := c.PredictStats(x)
			mq, vq, cq := q.PredictStats(x)
			if ce != cq {
				t.Fatalf("cfg %+v probe %d: count %d vs %d on the same leaf", cfg, i, ce, cq)
			}
			if rel := math.Abs(mq-me) / math.Max(math.Abs(me), 1e-300); me != 0 && rel > 2e-7 {
				t.Fatalf("cfg %+v probe %d: |mu_q-mu|/|mu| = %g", cfg, i, rel)
			}
			if rel := math.Abs(vq-ve) / math.Max(ve, 1e-300); ve != 0 && rel > 2e-7 {
				t.Fatalf("cfg %+v probe %d: variance error %g", cfg, i, rel)
			}
		}
	}
}

// TestQuantBoundedRoutingDivergence documents the quantized engine's
// behaviour on adversarial (non-float32-exact) feature values: a probe
// may route to a different leaf only when some feature value lies within
// one float32 rounding step of a threshold on its path. The test fits on
// irrational-valued features and verifies every divergence is explained
// by such a near-threshold encounter.
func TestQuantBoundedRoutingDivergence(t *testing.T) {
	r := rng.New(17)
	fs := []space.Feature{
		{Name: "a", Kind: space.FeatNumeric},
		{Name: "b", Kind: space.FeatNumeric},
	}
	n := 600
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{r.Float64() * math.Pi, r.Norm() * 0.1}
		y[i] = math.Sin(X[i][0]*3) + X[i][1]
	}
	tr, err := Fit(X, y, fs, Config{MinSamplesLeaf: 2}, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Compile()
	q, err := c.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	diverged := 0
	for i := 0; i < 4000; i++ {
		x := []float64{r.Float64() * math.Pi, r.Norm() * 0.1}
		if leafOf(c, x) == leafOfQ(q, x) {
			continue
		}
		diverged++
		// Every divergence must be a near-threshold event: some internal
		// node on the exact path has |x[f] - t| within one float32 ulp
		// scale of x[f].
		if !nearThresholdOnPath(c, x) {
			t.Fatalf("probe %d diverged without a near-threshold feature", i)
		}
	}
	if diverged > 4000/100 {
		t.Fatalf("%d/4000 probes diverged; routing quantization is not tight", diverged)
	}
}

// nearThresholdOnPath reports whether the exact root-to-leaf path of x
// crosses a numeric split whose threshold lies within ~one float32 ulp
// of the feature value.
func nearThresholdOnPath(c *Compiled, x []float64) bool {
	i := int32(0)
	for {
		nd := c.nodes[i]
		if nd.isLeaf() {
			return false
		}
		f := nd.feature()
		if nd.feat&catFlag == 0 {
			th := keyValue(nd.key)
			ulp := math.Max(math.Abs(x[f]), math.Abs(th)) * 1.3e-7
			if math.Abs(x[f]-th) <= ulp {
				return true
			}
			if x[f] <= th {
				i++
			} else {
				i += 1 + nd.rdelta
			}
		} else {
			i = c.stepCat(nd, x[f], i)
		}
	}
}

// TestQuantAllCategorical exercises the quantized engine on a purely
// categorical space, including out-of-range category probes, and
// TestQuantConstantFeature on degenerate constant columns.
func TestQuantAllCategorical(t *testing.T) {
	r := rng.New(29)
	fs := []space.Feature{
		{Name: "c1", Kind: space.FeatCategorical, NumCategories: 7},
		{Name: "c2", Kind: space.FeatCategorical, NumCategories: 90},
		{Name: "c3", Kind: space.FeatCategorical, NumCategories: 3},
	}
	n := 400
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{float64(r.Intn(7)), float64(r.Intn(90)), float64(r.Intn(3))}
		y[i] = float64(int(X[i][0])%3)*2 + float64(int(X[i][1])%5) - float64(int(X[i][2]))
	}
	tr, err := Fit(X, y, fs, Config{}, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Compile()
	q, err := c.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	if !q.HasCat() {
		t.Fatal("all-categorical tree reports HasCat() == false")
	}
	probes := append([][]float64{}, X...)
	probes = append(probes,
		[]float64{-1, 0, 0},
		[]float64{7, 90, 3},
		[]float64{99, -5, 1},
	)
	for i, x := range probes {
		if le, lq := leafOf(c, x), leafOfQ(q, x); le != lq {
			t.Fatalf("probe %d: exact leaf %d, quantized leaf %d", i, le, lq)
		}
		me, _, ce := c.PredictStats(x)
		mq, _, cq := q.PredictStats(x)
		if ce != cq || float64(float32(me)) != mq {
			t.Fatalf("probe %d: stats (%g,%d) vs (%g,%d)", i, me, ce, mq, cq)
		}
	}
}

func TestQuantConstantFeature(t *testing.T) {
	fs := []space.Feature{
		{Name: "const", Kind: space.FeatNumeric},
		{Name: "live", Kind: space.FeatNumeric},
	}
	r := rng.New(41)
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{5, float64(r.Intn(32))}
		y[i] = X[i][1] * X[i][1]
	}
	tr, err := Fit(X, y, fs, Config{}, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	q, err := tr.CompileQ()
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Compile()
	for _, x := range X {
		me, ve, ce := c.PredictStats(x)
		mq, vq, cq := q.PredictStats(x)
		if ce != cq || float64(float32(me)) != mq || float64(float32(ve)) != vq {
			t.Fatalf("constant-feature tree: (%g,%g,%d) vs (%g,%g,%d)", me, ve, ce, mq, vq, cq)
		}
	}
	// A single-leaf (root-only) tree must quantize and route too.
	yc := make([]float64, n)
	for i := range yc {
		yc[i] = 3
	}
	tc, err := Fit(X, yc, fs, Config{MaxDepth: 0, MinSamplesSplit: n + 1}, rng.New(47))
	if err != nil {
		t.Fatal(err)
	}
	qc, err := tc.CompileQ()
	if err != nil {
		t.Fatal(err)
	}
	if m, _, _ := qc.PredictStats(X[0]); m != 3 {
		t.Fatalf("root-leaf tree predicts %g", m)
	}
}

// TestQuantLeaf4MatchesLeaf drives the 4-lane kernel against the scalar
// walk on every alignment of a probe block, mixed trees included.
func TestQuantLeaf4MatchesLeaf(t *testing.T) {
	r := rng.New(53)
	X, y, fs := mixedData(r, 500)
	tr, err := Fit(X, y, fs, Config{}, rng.New(59))
	if err != nil {
		t.Fatal(err)
	}
	q, err := tr.CompileQ()
	if err != nil {
		t.Fatal(err)
	}
	probes, _, _ := mixedData(rng.New(61), 403) // deliberately not a multiple of 4
	xq := make([][]int32, len(probes))
	for i, x := range probes {
		xq[i] = make([]int32, len(x))
		QuantizeRow(x, xq[i])
	}
	for i := 0; i+4 <= len(probes); i++ {
		l0, l1, l2, l3 := q.Leaf4(xq[i], xq[i+1], xq[i+2], xq[i+3])
		for j, l := range []int32{l0, l1, l2, l3} {
			if want := q.Leaf(xq[i+j]); l != want {
				t.Fatalf("Leaf4 lane %d at offset %d: leaf %d, scalar %d", j, i, l, want)
			}
		}
	}
}

// TestQuantizeOverflow drives the packed-field guards through
// hand-assembled Compiled trees that exceed them.
func TestQuantizeOverflow(t *testing.T) {
	// 65537 nodes: one root split whose children chain past the uint16 id
	// space. Shape does not matter — only the node count triggers.
	big := &Compiled{nodes: make([]flatNode, 65537)}
	if _, err := big.Quantize(); err == nil {
		t.Fatal("65537-node tree quantized without error")
	}
	leaves := []flatNode{{rdelta: -1}, {rdelta: -1}}
	stats := func(c *Compiled) *Compiled {
		c.mean, c.variance, c.count = []float64{0, 1, 2}, []float64{0, 0, 0}, []int32{0, 1, 1}
		return c
	}
	// Feature id beyond 14 bits.
	wide := stats(&Compiled{
		nodes: append([]flatNode{{key: Key(0.5), feat: 1 << 14 * 8, rdelta: 1}}, leaves...),
		depth: 1,
	})
	if _, err := wide.Quantize(); err == nil {
		t.Fatal("feature id 2^14 quantized without error")
	}
	// Categorical packing beyond 14 bits of categories.
	cat := stats(&Compiled{
		nodes:   append([]flatNode{{key: uint64(0)<<32 | uint64(1<<14), feat: catFlag, rdelta: 1}}, leaves...),
		catBits: make([]uint64, 1<<14/64),
		depth:   1,
		hasCat:  true,
	})
	if _, err := cat.Quantize(); err == nil {
		t.Fatal("2^14-category split quantized without error")
	}
}

// FuzzQuantRoundTrip fuzzes the Compile → Quantize → PredictStats
// round trip against the exact engine: derived training data and probe
// from the fuzzed seeds, identical-leaf probes must agree to float32
// rounding, and count must match exactly. The seed corpus covers mixed,
// all-categorical and constant-feature shapes.
func FuzzQuantRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), 60, 0)
	f.Add(uint64(3), uint64(4), 200, 1) // all-categorical
	f.Add(uint64(5), uint64(6), 120, 2) // constant numeric column
	f.Add(uint64(7), uint64(8), 33, 0)
	f.Fuzz(func(t *testing.T, seedA, seedB uint64, n int, shape int) {
		if n < 5 || n > 2000 {
			t.Skip()
		}
		r := rng.New(seedA)
		var fs []space.Feature
		var gen func() []float64
		switch shape % 3 {
		case 1:
			fs = []space.Feature{
				{Name: "c1", Kind: space.FeatCategorical, NumCategories: 6},
				{Name: "c2", Kind: space.FeatCategorical, NumCategories: 65},
			}
			gen = func() []float64 { return []float64{float64(r.Intn(6)), float64(r.Intn(65))} }
		case 2:
			fs = []space.Feature{
				{Name: "k", Kind: space.FeatNumeric},
				{Name: "v", Kind: space.FeatNumeric},
			}
			gen = func() []float64 { return []float64{7, float64(r.Intn(100))} }
		default:
			fs = []space.Feature{
				{Name: "a", Kind: space.FeatNumeric},
				{Name: "b", Kind: space.FeatNumeric},
				{Name: "c", Kind: space.FeatCategorical, NumCategories: 9},
			}
			gen = func() []float64 {
				return []float64{r.Float64() * 100, float64(r.Intn(1024)), float64(r.Intn(9))}
			}
		}
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = gen()
			y[i] = X[i][0] + r.Norm()
		}
		tr, err := Fit(X, y, fs, Config{}, rng.New(seedB))
		if err != nil {
			t.Skip()
		}
		c := tr.Compile()
		q, err := c.Quantize()
		if err != nil {
			t.Fatalf("quantize: %v", err)
		}
		probes := append(make([][]float64, 0, n+50), X...)
		for i := 0; i < 50; i++ {
			probes = append(probes, gen())
		}
		for i, x := range probes {
			if leafOf(c, x) != leafOfQ(q, x) {
				if !nearThresholdOnPath(c, x) {
					t.Fatalf("probe %d routed differently without a near-threshold feature", i)
				}
				continue
			}
			me, ve, ce := c.PredictStats(x)
			mq, vq, cq := q.PredictStats(x)
			if cq != ce {
				t.Fatalf("probe %d: count %d vs %d", i, ce, cq)
			}
			if float64(float32(me)) != mq || float64(float32(ve)) != vq {
				t.Fatalf("probe %d: stats (%g,%g) vs (%g,%g)", i, me, ve, mq, vq)
			}
		}
	})
}
