package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	x, y := r.Uint64(), r.Uint64()
	if x == 0 && y == 0 {
		t.Fatal("zero seed produced a stuck stream")
	}
}

func TestChildStable(t *testing.T) {
	r1 := New(7)
	c1 := r1.Child(3)
	// Advance the parent a lot; Child must be unaffected.
	r2 := New(7)
	for i := 0; i < 100; i++ {
		r2.Uint64()
	}
	c2 := r2.Child(3)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Child depends on parent position")
		}
	}
}

func TestChildIndependentStreams(t *testing.T) {
	r := New(9)
	a, b := r.Child(0), r.Child(1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("children 0 and 1 collided %d/100 times", same)
	}
}

func TestSplitDiffersFromParent(t *testing.T) {
	r := New(11)
	s := r.Split()
	if r.Uint64() == s.Uint64() {
		t.Fatal("split stream equals parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want about 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for n := 1; n < 20; n++ {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(17)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d count %d deviates from %v by >5%%", i, c, want)
		}
	}
}

// TestIntnEachMatchesIntn: the register-resident batch draw returns the
// per-element Intn values and leaves the generator where they would,
// rejection path included (bounds near 2^63 reject often).
func TestIntnEachMatchesIntn(t *testing.T) {
	bounds := []int{1, 2, 3, 7, 10, 1000, 1 << 40, 3 << 61, math.MaxInt64}
	a, b := New(5), New(5)
	got := make([]int, len(bounds))
	for round := 0; round < 2000; round++ {
		a.IntnEach(got, bounds)
		for j, n := range bounds {
			if want := b.Intn(n); got[j] != want {
				t.Fatalf("round %d bound %d: IntnEach %d, Intn %d", round, n, got[j], want)
			}
		}
	}
	if a.State() != b.State() {
		t.Fatal("IntnEach left the generator elsewhere than Intn")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("IntnEach with a zero bound did not panic")
		}
	}()
	a.IntnEach(got[:2], []int{4, 0})
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(23)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestNormalScaling(t *testing.T) {
	r := New(29)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Normal(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal(10,2) mean = %v", mean)
	}
}

func TestLogNormalUnitMean(t *testing.T) {
	r := New(31)
	sigma := 0.2
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.LogNormal(-sigma*sigma/2, sigma)
	}
	if mean := sum / n; math.Abs(mean-1) > 0.01 {
		t.Fatalf("unit-mean lognormal mean = %v", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(37)
	for n := 0; n < 50; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) len %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(41)
	for n := 1; n <= 40; n++ {
		for k := 0; k <= n; k++ {
			s := r.Sample(n, k)
			if len(s) != k {
				t.Fatalf("Sample(%d,%d) len %d", n, k, len(s))
			}
			seen := map[int]bool{}
			for _, v := range s {
				if v < 0 || v >= n || seen[v] {
					t.Fatalf("Sample(%d,%d) invalid: %v", n, k, s)
				}
				seen[v] = true
			}
		}
	}
}

func TestSampleCoversAllElements(t *testing.T) {
	// Every index should be selectable, including with Floyd's path (k<<n).
	r := New(43)
	hit := make([]bool, 100)
	for i := 0; i < 5000; i++ {
		for _, v := range r.Sample(100, 5) {
			hit[v] = true
		}
	}
	for i, h := range hit {
		if !h {
			t.Fatalf("index %d never sampled", i)
		}
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3,4) did not panic")
		}
	}()
	New(1).Sample(3, 4)
}

func TestMixDeterministic(t *testing.T) {
	if Mix(1, 2) != Mix(1, 2) {
		t.Fatal("Mix not deterministic")
	}
	if Mix(1, 2) == Mix(2, 1) {
		t.Fatal("Mix symmetric; expected order sensitivity")
	}
}

func TestShuffleProperty(t *testing.T) {
	// Property: shuffling preserves the multiset of elements.
	f := func(seed uint64, raw []int8) bool {
		r := New(seed)
		vals := make([]int, len(raw))
		for i, v := range raw {
			vals[i] = int(v)
		}
		orig := map[int]int{}
		for _, v := range vals {
			orig[v]++
		}
		r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		got := map[int]int{}
		for _, v := range vals {
			got[v]++
		}
		if len(orig) != len(got) {
			return false
		}
		for k, v := range orig {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(53)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Uniform(-3,7) = %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(59)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) rate = %v", p)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Norm()
	}
	_ = sink
}

// mul64Schoolbook is the four-partial-product 128-bit multiply Intn used
// before it switched to bits.Mul64; it stays as the oracle that pins the
// switch to an identical product.
func mul64Schoolbook(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// TestMul64MatchesSchoolbook asserts bits.Mul64 (Intn's bounded-draw
// product) equals the hand-built 128-bit product on edge and random
// operands, so the Intn stream is unchanged by the switch.
func TestMul64MatchesSchoolbook(t *testing.T) {
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	check := func(a, b uint64) {
		gh, gl := bits.Mul64(a, b)
		wh, wl := mul64Schoolbook(a, b)
		if gh != wh || gl != wl {
			t.Fatalf("Mul64(%#x, %#x) = (%#x, %#x), schoolbook (%#x, %#x)", a, b, gh, gl, wh, wl)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	r := New(99)
	for i := 0; i < 200000; i++ {
		a, b := r.Uint64(), r.Uint64()
		check(a, b)
		check(a, b>>uint(r.Intn(64)))
	}
}
