// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the repository.
//
// Every experiment in this repo must be exactly reproducible from a single
// root seed. The standard library's math/rand/v2 sources are adequate
// generators but do not define a stable cross-version splitting scheme, so
// we implement the classic pairing of SplitMix64 (for seeding and
// splitting) with xoshiro256** (for the stream). Both algorithms are
// public-domain constructions by Blackman and Vigna.
//
// The zero value of RNG is not usable; construct one with New or Split.
package rng

import (
	"errors"
	"math"
	"math/bits"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// SplitMix64 passes BigCrush and is the recommended seeder for xoshiro.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix returns a well-scrambled 64-bit value derived from the pair (a, b).
// It is used to derive independent child seeds, e.g. per repetition or per
// tree, without correlations between the resulting streams.
func Mix(a, b uint64) uint64 {
	s := a
	_ = splitMix64(&s)
	s ^= 0x9e3779b97f4a7c15 * (b + 0x632be59bd9b4e019)
	return splitMix64(&s)
}

// RNG is a xoshiro256** generator. It is NOT safe for concurrent use; give
// each goroutine its own RNG via Split.
type RNG struct {
	s [4]uint64

	// seed is the value passed to New; kept so Child can derive stable
	// sub-streams regardless of how far this generator has advanced.
	seed uint64

	// cached second normal variate from the Box-Muller transform.
	hasGauss bool
	gauss    float64
}

// New returns a generator seeded from seed via SplitMix64, per the
// xoshiro authors' recommendation.
func New(seed uint64) *RNG {
	var r RNG
	r.seed = seed
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not be seeded with the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Split returns a new generator whose stream is statistically independent
// of r's. r advances by one step.
func (r *RNG) Split() *RNG {
	return New(Mix(r.Uint64(), 0xa0761d6478bd642f))
}

// Child returns a deterministic child generator for index i. Unlike Split
// it does not advance r, so Child(i) is stable no matter how many other
// children were created; use it to hand seeds to parallel workers.
func (r *RNG) Child(i uint64) *RNG {
	return New(Mix(r.seed, i+1))
}

// Seed returns the seed the generator was constructed with. It identifies
// the stream (New(r.Seed()) restarts it from the beginning) and lets a
// caller hand an equivalent-from-scratch generator to a lazy source whose
// resets must replay the exact draw sequence.
func (r *RNG) Seed() uint64 { return r.seed }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo < bound {
		hi = r.reject(hi, lo, bound)
	}
	return int(hi)
}

// reject finishes Lemire's bounded draw whose first product (hi, lo)
// fell below the bound: it redraws while lo is under the rejection
// threshold. It is reached with probability < bound/2^64.
func (r *RNG) reject(hi, lo, bound uint64) uint64 {
	threshold := (-bound) % bound
	for lo < threshold {
		hi, lo = bits.Mul64(r.Uint64(), bound)
	}
	return hi
}

// IntnEach sets dst[j] = r.Intn(bounds[j]) for every j in order: the
// same values and the same stream consumption as the per-element
// calls. The xoshiro state stays in registers across the loop and
// Lemire's fast path runs inline, which is what a lazy pool source
// drawing one level per parameter per candidate spends its time on.
// It panics if a bound is non-positive (after storing the draws made so
// far, exactly like the per-element calls would).
func (r *RNG) IntnEach(dst, bounds []int) {
	dst = dst[:len(bounds)]
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for j, n := range bounds {
		if n <= 0 {
			r.s = [4]uint64{s0, s1, s2, s3}
			panic("rng: Intn with non-positive n")
		}
		bound := uint64(n)
		x := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		hi, lo := bits.Mul64(x, bound)
		if lo < bound {
			r.s = [4]uint64{s0, s1, s2, s3}
			hi = r.reject(hi, lo, bound)
			s0, s1, s2, s3 = r.s[0], r.s[1], r.s[2], r.s[3]
		}
		dst[j] = int(hi)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a standard normal variate via the Box-Muller transform.
func (r *RNG) Norm() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// LogNormal returns exp(N(mu, sigma)). With mu = -sigma*sigma/2 the
// variate has unit mean, which is how the measurement-noise model uses it.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Perm returns a random permutation of [0, n) via Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample k out of range")
	}
	if k == 0 {
		return nil
	}
	// For small k relative to n, Floyd's algorithm avoids the O(n) perm.
	if k*4 <= n {
		chosen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for j := n - k; j < n; j++ {
			t := r.Intn(j + 1)
			if _, dup := chosen[t]; dup {
				t = j
			}
			chosen[t] = struct{}{}
			out = append(out, t)
		}
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	p := r.Perm(n)
	return p[:k]
}

// State is the complete serializable state of an RNG. It exists for
// checkpoint/resume: a generator restored with FromState continues its
// stream exactly where State was taken, including the cached Box-Muller
// variate. All fields are exported (and integer-typed) so the state
// survives JSON round trips bit-exactly.
type State struct {
	S        [4]uint64 `json:"s"`
	Seed     uint64    `json:"seed"`
	HasGauss bool      `json:"has_gauss,omitempty"`
	// Gauss carries the cached second normal variate as raw IEEE-754
	// bits; encoding it as a JSON float would be exact too, but bits
	// make the invariant impossible to break by a formatting change.
	Gauss uint64 `json:"gauss,omitempty"`
}

// State exports the generator's full state. The generator is not
// advanced.
func (r *RNG) State() State {
	return State{
		S:        r.s,
		Seed:     r.seed,
		HasGauss: r.hasGauss,
		Gauss:    math.Float64bits(r.gauss),
	}
}

// FromState reconstructs a generator from an exported State. The
// returned generator produces exactly the continuation of the stream the
// state was taken from. It returns an error for the all-zero xoshiro
// state, which is unreachable from New and marks a corrupt snapshot.
func FromState(st State) (*RNG, error) {
	if st.S[0]|st.S[1]|st.S[2]|st.S[3] == 0 {
		return nil, errors.New("rng: all-zero state")
	}
	return &RNG{
		s:        st.S,
		seed:     st.Seed,
		hasGauss: st.HasGauss,
		gauss:    math.Float64frombits(st.Gauss),
	}, nil
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}
