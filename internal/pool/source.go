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
// directly. Slice supports it by indexing, and Uniform by replay from
// recorded generator checkpoints.
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

// Uniform streams n configurations sampled uniformly with replacement —
// bit-identical to space.SampleConfigs(rng.New(seed), n), the paper's
// "sample 10,000 configurations" pool protocol, without materializing
// them.
//
// Draws are sequential, but the source still offers random access: it
// records the generator state at every ckptEvery-th candidate as the
// stream passes it (checkpoint 0 is the seed state), and At replays
// from the nearest checkpoint at or below the index. The checkpoint
// count is capped at maxCheckpoints whatever the pool size, so the
// source's state stays a few KB for a 10^5 or a 10^9 pool while a
// fetch replays at most ckptEvery-1 candidates.
type Uniform struct {
	sp   *space.Space
	seed uint64
	n    int
	pos  int
	r    rng.RNG

	// levels caches each parameter's level count, so a draw does not
	// copy the Parameter struct out of the space per Intn.
	levels []int

	// ckpts[m] is the generator state before candidate m*ckptEvery;
	// they are recorded in order, without gaps, by Next and At.
	ckptEvery int
	ckpts     []rng.RNG

	// at and scratch are At's replay generator and discard buffer, so
	// a fetch does not disturb the stream position.
	at      rng.RNG
	scratch space.Config
}

// maxCheckpoints caps the number of generator states a Uniform records,
// independently of its length.
const maxCheckpoints = 256

// NewUniform builds a uniform sampling source of n candidates.
func NewUniform(sp *space.Space, seed uint64, n int) *Uniform {
	levels := make([]int, sp.NumParams())
	for j := range levels {
		levels[j] = sp.Param(j).NumLevels()
	}
	every := max((n+maxCheckpoints-1)/maxCheckpoints, 1)
	u := &Uniform{sp: sp, seed: seed, n: n, levels: levels, ckptEvery: every,
		scratch: make(space.Config, len(levels))}
	u.Reset()
	u.ckpts = append(make([]rng.RNG, 0, max((n+every-1)/every, 1)), u.r)
	return u
}

// Space implements Source.
func (u *Uniform) Space() *space.Space { return u.sp }

// Len implements Source.
func (u *Uniform) Len() int { return u.n }

// Reset implements Source. The generator restarts from the seed, so the
// replayed draw sequence is exactly the original one.
func (u *Uniform) Reset() {
	u.r = *rng.New(u.seed)
	u.pos = 0
}

// Next implements Source. Each candidate consumes one Intn per parameter
// in parameter order — the same stream consumption as SampleConfig —
// regardless of how many candidates this call produces. The first pass
// over a checkpoint position records the generator state there.
func (u *Uniform) Next(dst []space.Config) int {
	k := len(dst)
	if rem := u.n - u.pos; k > rem {
		k = rem
	}
	next := len(u.ckpts) * u.ckptEvery // the first unrecorded checkpoint
	for i := 0; i < k; i++ {
		if u.pos+i == next {
			u.ckpts = append(u.ckpts, u.r)
			next += u.ckptEvery
		}
		u.r.IntnEach(dst[i], u.levels)
	}
	u.pos += k
	return k
}

// At implements RandomAccess: candidate i is replayed from the last
// checkpoint at or below it on a private generator, so the stream
// position is untouched. An index past the recorded checkpoints first
// streams forward from the last one, recording those it passes.
func (u *Uniform) At(i int, dst space.Config) {
	if i < 0 || i >= u.n {
		panic(fmt.Sprintf("pool: Uniform.At(%d) outside [0, %d)", i, u.n))
	}
	m := i / u.ckptEvery
	for len(u.ckpts) <= m {
		u.at = u.ckpts[len(u.ckpts)-1]
		for k := 0; k < u.ckptEvery; k++ {
			u.at.IntnEach(u.scratch, u.levels)
		}
		u.ckpts = append(u.ckpts, u.at)
	}
	u.at = u.ckpts[m]
	for k := m * u.ckptEvery; k < i; k++ {
		u.at.IntnEach(u.scratch, u.levels)
	}
	u.at.IntnEach(dst, u.levels)
}

// Fingerprint implements Source.
func (u *Uniform) Fingerprint() uint64 {
	h := fnvMix(fnvOffset, 'U')
	h = fingerprintSpace(h, u.sp)
	h = fnvMix(h, u.seed)
	return fnvMix(h, uint64(u.n))
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
