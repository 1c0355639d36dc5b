// Package pool streams candidate configurations for the active-learning
// loop without ever materializing the full pool.
//
// The paper scores pools of 10^3–10^4 configurations per iteration, small
// enough to hold as one encoded matrix. Production tuning spaces (full
// SPAPT cross products, kripke layouts × process counts) reach 10^6–10^8
// points; this package breaks the "pool fits in one matrix" assumption:
//
//   - A Source generates candidates lazily and deterministically: resetting
//     and re-reading yields the identical sequence, no matter how the reads
//     are chunked (shard-size invariance).
//   - Scan drives shards of a Source through a BatchScorer on a small pool
//     of workers, each with reusable config/matrix buffers, so peak memory
//     is O(workers × shard), not O(pool).
//   - TopK / BottomK reduce the scored stream into exactly the selection
//     a sort-based pass over the materialized scores would make: same NaN
//     sinking, same index tie-breaks, same duplicate suppression.
package pool

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/space"
)

// Source is a deterministic, resettable stream of candidate
// configurations — the lazy counterpart of a materialized []space.Config
// pool. The global index of a candidate is its position in the stream;
// every determinism contract in this package is stated in terms of it.
//
// Implementations must be shard-size invariant: any sequence of Next
// calls after a Reset yields the same concatenated candidate sequence and
// consumes any internal randomness identically, regardless of how many
// configurations each call requests. A Source is not safe for concurrent
// use; Scan reads it from a single driver goroutine.
type Source interface {
	// Space returns the parameter space the candidates are drawn from.
	Space() *space.Space

	// Len returns the total number of candidates in the stream.
	Len() int

	// Reset rewinds the stream to the first candidate.
	Reset()

	// Next fills dst with the next configurations and returns how many
	// were produced (0 at end of stream). Every dst[i] must be a
	// caller-allocated Config of length Space().NumParams(); the source
	// writes level indices into it.
	Next(dst []space.Config) int

	// Fingerprint identifies the exact candidate sequence (kind, space
	// shape, seed, length) so checkpoints can reject a mismatched source
	// instead of silently diverging, like core snapshots fingerprint
	// materialized pools.
	Fingerprint() uint64
}

// RandomAccess is an optional Source capability: decode the i-th candidate
// directly. Sources whose stream position is a pure function of the index
// (enumeration, precomputed LHS columns, materialized slices) support it;
// sequentially-drawn samplers do not.
type RandomAccess interface {
	Source

	// At writes candidate i into dst (length NumParams).
	At(i int, dst space.Config)
}

// FNV-1a, byte-at-a-time over little-endian uint64 words — the same
// construction core uses to fingerprint materialized pools.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// fingerprintSpace folds the space shape (dimensionality and per-parameter
// level counts) into h. Two sources over differently-shaped spaces can
// never collide on sequence identity.
func fingerprintSpace(h uint64, sp *space.Space) uint64 {
	h = fnvMix(h, uint64(sp.NumParams()))
	for i := 0; i < sp.NumParams(); i++ {
		h = fnvMix(h, uint64(sp.Param(i).NumLevels()))
	}
	return h
}

// Enumeration streams every configuration of a space in odometer order —
// the full cross product, identical to space.Enumerate but without the
// 1<<22 materialization cap.
type Enumeration struct {
	sp *space.Space
	it *space.Iterator
	n  int
}

// NewEnumeration builds an enumeration source. It errors when the space's
// cardinality does not fit an int (such spaces cannot be indexed by the
// engine's global candidate indices).
func NewEnumeration(sp *space.Space) (*Enumeration, error) {
	card, ok := sp.Cardinality()
	if !ok || card > math.MaxInt64 || int64(int(card)) != card {
		return nil, fmt.Errorf("pool: space cardinality overflows int")
	}
	return &Enumeration{sp: sp, it: sp.Iter(), n: int(card)}, nil
}

// Space implements Source.
func (e *Enumeration) Space() *space.Space { return e.sp }

// Len implements Source.
func (e *Enumeration) Len() int { return e.n }

// Reset implements Source.
func (e *Enumeration) Reset() { e.it.Reset() }

// Next implements Source.
func (e *Enumeration) Next(dst []space.Config) int {
	k := 0
	for k < len(dst) && e.it.Next(dst[k]) {
		k++
	}
	return k
}

// At implements RandomAccess via mixed-radix decoding.
func (e *Enumeration) At(i int, dst space.Config) {
	e.sp.ConfigAt(int64(i), dst)
}

// Fingerprint implements Source.
func (e *Enumeration) Fingerprint() uint64 {
	h := fnvMix(fnvOffset, 'E')
	h = fingerprintSpace(h, e.sp)
	return fnvMix(h, uint64(e.n))
}

// Uniform streams n configurations sampled uniformly with replacement —
// bit-identical to space.SampleConfigs(rng.New(seed), n), the paper's
// "sample 10,000 configurations" pool protocol, without materializing
// them. Draws are sequential, so the source offers no random access; the
// engine fetches selected configs with one cheap generation-only pass.
type Uniform struct {
	sp   *space.Space
	seed uint64
	n    int
	pos  int
	r    *rng.RNG

	// levels caches each parameter's level count, so a draw does not
	// copy the Parameter struct out of the space per Intn.
	levels []int
}

// NewUniform builds a uniform sampling source of n candidates.
func NewUniform(sp *space.Space, seed uint64, n int) *Uniform {
	levels := make([]int, sp.NumParams())
	for j := range levels {
		levels[j] = sp.Param(j).NumLevels()
	}
	u := &Uniform{sp: sp, seed: seed, n: n, levels: levels}
	u.Reset()
	return u
}

// Space implements Source.
func (u *Uniform) Space() *space.Space { return u.sp }

// Len implements Source.
func (u *Uniform) Len() int { return u.n }

// Reset implements Source. The generator restarts from the seed, so the
// replayed draw sequence is exactly the original one.
func (u *Uniform) Reset() {
	u.r = rng.New(u.seed)
	u.pos = 0
}

// Next implements Source. Each candidate consumes one Intn per parameter
// in parameter order — the same stream consumption as SampleConfig —
// regardless of how many candidates this call produces.
func (u *Uniform) Next(dst []space.Config) int {
	k := len(dst)
	if rem := u.n - u.pos; k > rem {
		k = rem
	}
	for i := 0; i < k; i++ {
		c := dst[i]
		for j, nl := range u.levels {
			c[j] = u.r.Intn(nl)
		}
	}
	u.pos += k
	return k
}

// Fingerprint implements Source.
func (u *Uniform) Fingerprint() uint64 {
	h := fnvMix(fnvOffset, 'U')
	h = fingerprintSpace(h, u.sp)
	h = fnvMix(h, u.seed)
	return fnvMix(h, uint64(u.n))
}

// LHS streams the n configurations of a discrete Latin-hypercube draw,
// bit-identical to space.SampleLHS(rng.New(seed), n). All randomness is
// consumed at construction (the per-parameter shuffled columns), which is
// what makes shard-size invariance trivial — but it also means the source
// holds O(NumParams × n) ints; LHS pools are cold-start-sized, not
// 10^7-sized, so that footprint is by design.
type LHS struct {
	sp   *space.Space
	seed uint64
	cols [][]int
	n    int
	pos  int
}

// NewLHS builds a Latin-hypercube source of n candidates.
func NewLHS(sp *space.Space, seed uint64, n int) *LHS {
	return &LHS{sp: sp, seed: seed, cols: sp.SampleLHSColumns(rng.New(seed), n), n: n}
}

// Space implements Source.
func (l *LHS) Space() *space.Space { return l.sp }

// Len implements Source.
func (l *LHS) Len() int { return l.n }

// Reset implements Source.
func (l *LHS) Reset() { l.pos = 0 }

// Next implements Source.
func (l *LHS) Next(dst []space.Config) int {
	k := len(dst)
	if rem := l.n - l.pos; k > rem {
		k = rem
	}
	for i := 0; i < k; i++ {
		l.At(l.pos+i, dst[i])
	}
	l.pos += k
	return k
}

// At implements RandomAccess.
func (l *LHS) At(i int, dst space.Config) {
	for j := range l.cols {
		dst[j] = l.cols[j][i]
	}
}

// Fingerprint implements Source.
func (l *LHS) Fingerprint() uint64 {
	h := fnvMix(fnvOffset, 'L')
	h = fingerprintSpace(h, l.sp)
	h = fnvMix(h, l.seed)
	return fnvMix(h, uint64(l.n))
}

// Slice adapts a materialized pool to the Source interface: the form
// every caller holding a []space.Config (the experiment harness's
// datasets, a held-out test set) hands to the engine.
type Slice struct {
	sp      *space.Space
	configs []space.Config
	pos     int
}

// NewSlice wraps an existing pool. The slice is not copied; the caller
// must not mutate it while the source is in use.
func NewSlice(sp *space.Space, configs []space.Config) *Slice {
	return &Slice{sp: sp, configs: configs}
}

// Space implements Source.
func (s *Slice) Space() *space.Space { return s.sp }

// Len implements Source.
func (s *Slice) Len() int { return len(s.configs) }

// Reset implements Source.
func (s *Slice) Reset() { s.pos = 0 }

// Next implements Source.
func (s *Slice) Next(dst []space.Config) int {
	k := len(dst)
	if rem := len(s.configs) - s.pos; k > rem {
		k = rem
	}
	for i := 0; i < k; i++ {
		copy(dst[i], s.configs[s.pos+i])
	}
	s.pos += k
	return k
}

// At implements RandomAccess.
func (s *Slice) At(i int, dst space.Config) { copy(dst, s.configs[i]) }

// Fingerprint implements Source: FNV-1a over the level indices, the same
// scheme core snapshots use for materialized pools.
func (s *Slice) Fingerprint() uint64 {
	h := fnvMix(fnvOffset, 'S')
	h = fingerprintSpace(h, s.sp)
	h = fnvMix(h, uint64(len(s.configs)))
	for _, c := range s.configs {
		h = fnvMix(h, uint64(len(c)))
		for _, lvl := range c {
			h = fnvMix(h, uint64(int64(lvl)))
		}
	}
	return h
}
