package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/pool"
	"repro/internal/rng"
)

// hostilePWUPool builds a pool of n ordinary candidates (μ log-uniform
// over six decades, σ up to μ, every third one sharing its feature
// vector with an earlier one) plus every input corner of PWU.Score:
// NaN μ or σ, σ = 0, negative σ, infinities, μ at and below the 1e-12
// clamp, subnormal and huge μ. Then, for each k, it appends copies of
// the k-th best candidate — tying the floor exactly, and one ulp either
// side of it in σ — at both ends of the ordinal range.
func hostilePWUPool(r *rng.RNG, alpha float64, n int, ks []int) *Candidates {
	var mu, sigma []float64
	var xs [][]float64
	add := func(m, s float64, x []float64) {
		mu, sigma = append(mu, m), append(sigma, s)
		xs = append(xs, x)
	}
	// Tie copies at the lowest ordinals are prepended below, so the pool
	// is assembled after the tie values are known.
	for i := 0; i < n; i++ {
		m := math.Pow(10, 6*r.Float64()-3)
		x := []float64{float64(i)}
		if i%3 == 2 {
			x = xs[r.Intn(len(xs))]
		}
		add(m, m*r.Float64(), x)
	}
	corners := [][2]float64{
		{math.NaN(), 1}, {1, math.NaN()}, {math.NaN(), math.NaN()},
		{1, 0}, {1e-12, 0}, {1, -1}, {1, math.Copysign(0, -1)},
		{math.Inf(1), 1}, {math.Inf(-1), 1}, {math.Inf(1), math.Inf(1)},
		{1e-12, 0.5}, {1e-13, 0.5}, {0, 0.5}, {-3, 0.5}, {math.Copysign(0, -1), 0.5},
		{5e-324, 0.5}, {1e-310, 0.5}, {2.2250738585072014e-308, 0.5},
		{1e300, 1e300}, {math.MaxFloat64, math.MaxFloat64}, {1e300, 0.5},
		{1, 5e-324}, {1e-300, 1e-300},
	}
	for i, c := range corners {
		add(c[0], c[1], []float64{float64(-1 - i)})
	}

	p := PWU{Alpha: alpha}
	scores := make([]float64, len(mu))
	for i := range mu {
		scores[i] = p.Score(mu[i], sigma[i])
	}
	order := topKByScore(scores, len(scores))
	var tiesMu, tiesSigma []float64
	for _, k := range ks {
		if k > len(order) {
			continue
		}
		j := order[k-1]
		s := sigma[j]
		for _, ts := range []float64{s, math.Nextafter(s, math.Inf(-1)), math.Nextafter(s, math.Inf(1))} {
			if math.IsInf(ts, 0) {
				continue // an infinite σ would turn the floor off for good
			}
			tiesMu = append(tiesMu, mu[j])
			tiesSigma = append(tiesSigma, ts)
		}
	}
	c := &Candidates{}
	for i := range tiesMu { // lower ordinals than the candidate they tie
		c.Mu = append(c.Mu, tiesMu[i])
		c.Sigma = append(c.Sigma, tiesSigma[i])
		c.X = append(c.X, []float64{1e9 + float64(i)})
	}
	c.Mu = append(c.Mu, mu...)
	c.Sigma = append(c.Sigma, sigma...)
	c.X = append(c.X, xs...)
	for i := range tiesMu { // higher ordinals
		c.Mu = append(c.Mu, tiesMu[i])
		c.Sigma = append(c.Sigma, tiesSigma[i])
		c.X = append(c.X, []float64{2e9 + float64(i)})
	}
	return c
}

// TestPWUFloorMatchesExact: PWU's floor-pruned selection equals the
// unpruned selectTopK over PWU.Score on hostile pools — ties at the
// floor at lower and higher ordinals, duplicates, NaN μ or σ, σ = 0,
// μ below the clamp, subnormal and huge μ — for every delivery order,
// at α ∈ {0.01, 0.05, 0.5, 1}. Selections whose final floor is positive
// and finite must actually prune.
func TestPWUFloorMatchesExact(t *testing.T) {
	ks := []int{1, 2, 5, 16}
	for _, alpha := range []float64{0.01, 0.05, 0.5, 1} {
		for seed := uint64(1); seed <= 3; seed++ {
			c := hostilePWUPool(rng.New(seed), alpha, 3000, ks)
			n := c.Len()
			fwd, rev, shuf := make([]int, n), make([]int, n), make([]int, n)
			for i := range fwd {
				fwd[i], rev[i], shuf[i] = i, n-1-i, i
			}
			sr := rng.New(seed + 100)
			sr.Shuffle(n, func(a, b int) { shuf[a], shuf[b] = shuf[b], shuf[a] })
			p := PWU{Alpha: alpha}
			for oi, order := range [][]int{fwd, rev, shuf} {
				ps := &memStream{c: c, order: order}
				for _, k := range ks {
					want, err := selectTopK(ps, k, p.Score)
					if err != nil {
						t.Fatal(err)
					}
					r := newPWUReducer(p, k)
					if err := ps.Scan(r.push); err != nil {
						t.Fatal(err)
					}
					got := r.tk.Result()
					name := fmt.Sprintf("alpha=%v seed=%d order=%d k=%d", alpha, seed, oi, k)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: pruned %v, exact %v", name, got, want)
					}
					if sel, _ := p.SelectStream(ps, k); fmt.Sprint(sel) != fmt.Sprint(want) {
						t.Fatalf("%s: SelectStream %v, exact %v", name, sel, want)
					}
					last := want[len(want)-1]
					final := p.Score(c.Mu[last], c.Sigma[last])
					if final > 0 && final <= math.MaxFloat64 && r.scored >= n/2 {
						t.Fatalf("%s: scored %d of %d candidates exactly; the floor pruned almost nothing", name, r.scored, n)
					}
				}
			}
		}
	}
}

// TestPWUFloorExactPaths: selections whose floor pruning must not touch
// — α outside (0, 1] (CV's α = 0 included), a floor at 0 with ties at
// smaller ordinals, an infinite floor — score every candidate and still
// equal the exact selection.
func TestPWUFloorExactPaths(t *testing.T) {
	zeros := &Candidates{Mu: []float64{1, 2, 3, 4, 5, 6}, Sigma: make([]float64, 6)}
	infs := &Candidates{Mu: []float64{1e-12, 1e-12, 1, 2, 3}, Sigma: []float64{math.MaxFloat64, math.MaxFloat64, 1, 2, 3}}
	for _, c := range []*Candidates{zeros, infs} {
		for i := range c.Mu {
			c.X = append(c.X, []float64{float64(i)})
		}
	}
	// The zero floor is set by the last ordinals, so the ties at smaller
	// ordinals arrive after it; the infinite floor is set first.
	cases := []struct {
		name    string
		c       *Candidates
		alpha   float64
		reverse bool
	}{
		{"zero floor", zeros, 0.05, true},
		{"infinite floor", infs, 0.05, false},
		{"alpha 0", infs, 0, true},
		{"alpha negative", infs, -0.5, true},
		{"alpha above 1", infs, 7, true},
		{"alpha NaN", infs, math.NaN(), true},
	}
	for _, tc := range cases {
		n := tc.c.Len()
		order := make([]int, n)
		for i := range order {
			order[i] = i
			if tc.reverse {
				order[i] = n - 1 - i
			}
		}
		ps := &memStream{c: tc.c, order: order}
		p := PWU{Alpha: tc.alpha}
		want, _ := selectTopK(ps, 2, p.Score)
		r := newPWUReducer(p, 2)
		_ = ps.Scan(r.push)
		if got := r.tk.Result(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: pruned %v, exact %v", tc.name, got, want)
		}
		if r.scored != n {
			t.Fatalf("%s: scored %d of %d; this selection must take the exact path", tc.name, r.scored, n)
		}
	}
}

// FuzzPWUFloor: whenever the bound rejects a candidate against a floor
// the reducer admits for pruning, PWU.Score of that candidate is
// strictly below the floor (so Push would have ignored it). Besides the
// fuzzed σ, the σ values just under the bound's rejection threshold —
// the candidates the bound is tightest on — are checked. The committed
// corpus (testdata/fuzz/FuzzPWUFloor) covers μ at, below and far from
// the clamp, subnormal and huge μ, NaN and infinite inputs, α at 1 and
// near 0, and floors at the pruning limits.
func FuzzPWUFloor(f *testing.F) {
	f.Fuzz(func(t *testing.T, muBits, sigmaBits, floorBits, alphaBits uint64, nudge uint8) {
		mu, sigma := math.Float64frombits(muBits), math.Float64frombits(sigmaBits)
		floor, alpha := math.Float64frombits(floorBits), math.Float64frombits(alphaBits)
		b := newPWUBound(alpha)
		tk := pool.NewTopK(1)
		tk.Push(0, floor, nil)
		fl := pruneFloor(tk)
		if b == nil || fl == 0 {
			t.Skip()
		}
		p := PWU{Alpha: alpha}
		check := func(s float64) {
			if b.below(mu, s, fl) {
				if got := p.Score(mu, s); !(got < fl) {
					t.Fatalf("bound rejected mu=%v sigma=%v at floor %v (alpha %v), but Score = %v", mu, s, fl, alpha, got)
				}
			}
		}
		check(sigma)
		if mu-mu == 0 {
			m := math.Max(mu, 1e-12)
			thr := fl * b.low(m)
			s := thr
			for i := 0; i <= int(nudge%8); i++ {
				s = math.Nextafter(s, math.Inf(-1))
				check(s)
			}
			check(thr)
		}
	})
}
