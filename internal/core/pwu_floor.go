package core

import (
	"math"

	"repro/internal/pool"
)

// Floor-pruned PWU selection. Once PWU's top-k reducer is full, a
// candidate enters only by beating the reducer's floor, the worst
// retained score. Most of a large pool's candidates fall far below it,
// so the scan proves that cheaply — σ against floor × a tabulated lower
// bound on the power μ^(1−α) — and calls math.Pow and Push only for the
// candidates the bound cannot exclude. A rejected candidate's exact
// score is strictly below the floor, so Push would have ignored it (a
// full distinct heap makes duplicate fill unreachable): the selection is
// bit-identical to scoring every candidate.

// pwuBucketBits is log2 of the mantissa buckets per binade. Within a
// bucket μ varies by at most 2^-pwuBucketBits relative, so the power's
// lower bound is loose by under 1/64 and only candidates scoring within
// about 1.6 % of the floor are scored exactly.
const (
	pwuBucketBits = 6
	pwuBuckets    = 1 << pwuBucketBits
)

// pwuMargin discounts every tabulated power so it stays a lower bound on
// what math.Pow returns for any μ in its bucket. math.Pow computes
// μ^e as exp(e'·ln μ) times a power of μ; with |e'·ln μ| ≤ 355 its
// relative error stays below about 1e-13, and the rejection test adds
// two roundings of 2^-53 each (the threshold product, and the division
// in Score). 2^-20 exceeds their sum by over six orders of magnitude
// and costs nothing measurable against the bucket width.
const pwuMargin = 0x1p-20

// pwuMinFloor is the smallest floor pruning runs at: every tabulated
// power is at least min(1, 1e-12)·(1−pwuMargin) > 2^-40 (m ≥ 1e-12,
// 0 ≤ e < 1), so floor × power stays a normal float64 and its rounding
// error stays relative.
const pwuMinFloor = 0x1p-960

// pwuBound holds, for one exponent e = 1−α, lower bounds on
// math.Pow(m, e) per (binade, mantissa bucket) of m, filled lazily: a
// scan touches few binades and few buckets within them.
type pwuBound struct {
	e float64
	// row maps a biased float64 exponent to 1 + its row index in lows
	// (0 = no row yet).
	row [2048]uint16
	// lows holds pwuBuckets bounds per row; 0 marks an unfilled bucket
	// (every bound is positive, since m ≥ 1e-12).
	lows []float64
}

// newPWUBound returns the bound table for PWU{alpha}, or nil when alpha
// lies outside (0, 1] (NaN included): such selections take the exact
// path for every candidate.
func newPWUBound(alpha float64) *pwuBound {
	if !(alpha > 0 && alpha <= 1) {
		return nil
	}
	return &pwuBound{e: 1 - alpha}
}

// low returns a lower bound on math.Pow(m, b.e) for a finite m ≥ 1e-12.
func (b *pwuBound) low(m float64) float64 {
	bits := math.Float64bits(m)
	exp := bits >> 52 & 0x7ff
	r := int(b.row[exp])
	if r == 0 {
		b.lows = append(b.lows, make([]float64, pwuBuckets)...)
		r = len(b.lows) / pwuBuckets
		b.row[exp] = uint16(r)
	}
	i := (r-1)<<pwuBucketBits | int(bits>>(52-pwuBucketBits)&(pwuBuckets-1))
	v := b.lows[i]
	if v == 0 {
		// The bucket's smallest m: its exponent and leading mantissa
		// bits, the rest zero. The power is nondecreasing in m for e ≥ 0.
		left := math.Float64frombits(bits &^ (1<<(52-pwuBucketBits) - 1))
		v = math.Pow(left, b.e) * (1 - pwuMargin)
		b.lows[i] = v
	}
	return v
}

// below reports whether PWU's score of (mu, sigma) is provably strictly
// below floor, a value pruneFloor admitted. NaN or infinite inputs and
// σ < 0 are never rejected: they take the exact path.
func (b *pwuBound) below(mu, sigma, floor float64) bool {
	if !(sigma >= 0 && sigma <= math.MaxFloat64) || mu-mu != 0 {
		return false
	}
	if mu < 1e-12 {
		mu = 1e-12 // PWU.Score's clamp
	}
	return sigma < floor*b.low(mu)
}

// pruneFloor returns the reducer's floor when pruning against it is
// sound — the selection is full and the floor is a finite positive
// value no smaller than pwuMinFloor — and 0 (pruning off) otherwise. A
// floor at or below 0 must stay exact: candidates tying it at a smaller
// ordinal still enter.
func pruneFloor(tk *pool.TopK) float64 {
	f, ok := tk.Floor()
	if !ok || !(f >= pwuMinFloor && f <= math.MaxFloat64) {
		return 0
	}
	return f
}

// pwuReducer is PWU's scan consumer: the distinct top-k of Eq. 1 with
// floor pruning. scored counts the candidates scored exactly.
type pwuReducer struct {
	p      PWU
	tk     *pool.TopK
	bound  *pwuBound
	floor  float64 // 0 while pruning is off
	scored int
}

// newPWUReducer returns the reducer for PWU's top-k selection; α
// outside (0, 1] leaves its bound nil, which scores every candidate.
func newPWUReducer(p PWU, k int) *pwuReducer {
	return &pwuReducer{p: p, tk: pool.NewTopKDistinct(k), bound: newPWUBound(p.Alpha)}
}

// push offers one scanned candidate.
func (r *pwuReducer) push(ord int, x []float64, mu, sigma float64) {
	if r.floor > 0 && r.bound.below(mu, sigma, r.floor) {
		return
	}
	r.scored++
	r.tk.Push(ord, r.p.Score(mu, sigma), x)
	if r.bound != nil {
		r.floor = pruneFloor(r.tk)
	}
}
