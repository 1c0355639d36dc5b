package core

import (
	"fmt"
	"math"

	"repro/internal/pool"
	"repro/internal/rng"
)

// PoolStream is what a strategy sees each iteration: the remaining
// candidate pool as a scored stream. Candidate indices ("ordinals") are
// a candidate's rank among the remaining candidates in source order;
// SelectStream returns them.
type PoolStream interface {
	// Len returns the number of remaining candidates.
	Len() int

	// BestY returns the best (smallest) observed training label so far,
	// the incumbent EI improves upon.
	BestY() float64

	// Rand returns the run's generator; strategies that draw randomness
	// (Random, BRS) draw from it, so the run's stream position stays a
	// pure function of the inputs.
	Rand() *rng.RNG

	// Scan streams every remaining candidate through consume exactly
	// once, in unspecified order, with deterministic (ord, x, mu, sigma)
	// values. consume is never called concurrently, and x is only valid
	// during the call. Strategies may scan more than once per selection
	// (the model is fixed, so repeated scans see identical scores).
	Scan(consume func(ord int, x []float64, mu, sigma float64)) error
}

// Strategy picks the next batch of candidates to evaluate. The returned
// slice must contain nBatch distinct valid ordinals (or fewer only when
// fewer candidates remain). The selection must be a pure function of
// the scored stream and the generator state — independent of the scan's
// delivery order, shard size and worker count — which the bounded
// reducers of internal/pool guarantee by construction.
type Strategy interface {
	// Name identifies the strategy in tables and figures, e.g. "PWU".
	Name() string

	// SelectStream returns the candidate ordinals to evaluate next.
	SelectStream(ps PoolStream, nBatch int) ([]int, error)
}

// StreamStrategy is the historical name of Strategy, kept so code that
// wraps a strategy by embedding it under that name keeps compiling.
type StreamStrategy = Strategy

// clampBatch bounds nBatch into [0, ps.Len()]. A negative request
// clamps to 0 (an empty selection).
func clampBatch(ps PoolStream, nBatch int) int {
	if n := ps.Len(); nBatch > n {
		nBatch = n
	}
	if nBatch < 0 {
		nBatch = 0
	}
	return nBatch
}

// selectTopK runs one scan reducing score(mu, sigma) into the distinct
// top-nBatch (NaN scores rank last, ties break by lower ordinal, and a
// batch prefers distinct feature vectors, falling back to duplicates
// only when distinct candidates run out) — the shape shared by PWU,
// BestPerf, MaxU, EI and CV. On the small application spaces (kripke
// has 2304 points, hypre 3150) the paper's sampled pool necessarily
// contains duplicates; with batch sizes above 1 a purely greedy top-k
// would spend the whole batch on copies of one configuration whose model
// belief cannot change until the refit. With nBatch = 1 (the paper's
// setting) duplicate suppression never engages.
func selectTopK(ps PoolStream, nBatch int, score func(mu, sigma float64) float64) ([]int, error) {
	nBatch = clampBatch(ps, nBatch)
	if nBatch == 0 {
		return nil, nil
	}
	tk := pool.NewTopKDistinct(nBatch)
	if err := ps.Scan(func(ord int, x []float64, mu, sigma float64) {
		tk.Push(ord, score(mu, sigma), x)
	}); err != nil {
		return nil, err
	}
	return tk.Result(), nil
}

// perfCutoff computes the stage-1 performance filter size shared by PBUS
// and BRS: ceil(frac·n), at least nBatch, at most n.
func perfCutoff(n, nBatch int, frac, def float64) int {
	if frac <= 0 {
		frac = def
	}
	k := int(math.Ceil(float64(n) * frac))
	if k < nBatch {
		k = nBatch
	}
	if k > n {
		k = n
	}
	return k
}

// PWU is the paper's Performance Weighted Uncertainty strategy (Eq. 1):
//
//	s_i = σ_i / μ_i^(1-α)
//
// where μ is predicted execution time (smaller = higher performance) and
// σ is prediction uncertainty. α ∈ (0, 1] is the fraction of the space
// regarded as high-performance; as α→1 the score degenerates to pure
// uncertainty sampling, and as α→0 to the coefficient of variation σ/μ.
type PWU struct {
	// Alpha is the high-performance proportion; the paper uses 0.01,
	// 0.05, 0.10.
	Alpha float64
}

// Name implements Strategy.
func (p PWU) Name() string { return "PWU" }

// Score computes Eq. 1 for a single (μ, σ) pair. μ is clamped to a tiny
// positive value: execution times are positive, but a degenerate model
// could predict 0.
func (p PWU) Score(mu, sigma float64) float64 {
	if mu < 1e-12 {
		mu = 1e-12
	}
	return sigma / math.Pow(mu, 1-p.Alpha)
}

// SelectStream implements Strategy: the nBatch candidates with the
// highest PWU score — selectTopK's selection, bit for bit, with the
// candidates a full selection provably rejects left unscored
// (pwu_floor.go).
func (p PWU) SelectStream(ps PoolStream, nBatch int) ([]int, error) {
	nBatch = clampBatch(ps, nBatch)
	if nBatch == 0 {
		return nil, nil
	}
	r := newPWUReducer(p, nBatch)
	if err := ps.Scan(r.push); err != nil {
		return nil, err
	}
	return r.tk.Result(), nil
}

// PBUS is the Performance Biased Uncertainty Sampling baseline of
// Balaprakash et al. 2013: first restrict attention to the top PerfFrac
// fraction of candidates by predicted performance, then take the most
// uncertain ones from that subset — performance *before* uncertainty,
// the two-stage ordering whose limitation the paper demonstrates.
type PBUS struct {
	// PerfFrac is the fraction of candidates kept by the performance
	// filter; <= 0 defaults to 0.10.
	PerfFrac float64
}

// Name implements Strategy.
func (p PBUS) Name() string { return "PBUS" }

// SelectStream implements Strategy. PBUS scans twice: pass 1 reduces
// the bottom-k' of μ (k' = ceil(PerfFrac·n)) to its boundary, the k'-th
// smallest under the (sunk μ, ordinal) order; pass 2 selects the most
// uncertain candidates inside that boundary, de-duplicated across the
// batch. The model is fixed across passes, so pass 2 sees the exact μ
// values pass 1 ranked — membership by (μ, ordinal) comparison against
// the boundary reproduces the stage-1 candidate set without storing it.
func (p PBUS) SelectStream(ps PoolStream, nBatch int) ([]int, error) {
	nBatch = clampBatch(ps, nBatch)
	if nBatch == 0 {
		return nil, nil
	}
	k := perfCutoff(ps.Len(), nBatch, p.PerfFrac, 0.10)
	bk := pool.NewBottomK(k)
	if err := ps.Scan(func(ord int, _ []float64, mu, _ float64) {
		bk.Push(ord, mu, nil)
	}); err != nil {
		return nil, err
	}
	bScore, bOrd, ok := bk.Worst()
	if !ok {
		return nil, nil
	}
	tk := pool.NewTopKDistinct(nBatch)
	if err := ps.Scan(func(ord int, x []float64, mu, sigma float64) {
		if math.IsNaN(mu) {
			mu = math.Inf(1) // the bottom-k sink, so NaN-μ candidates rank last
		}
		score := math.Inf(-1)
		if mu < bScore || (mu == bScore && ord <= bOrd) {
			score = sigma
		}
		tk.Push(ord, score, x)
	}); err != nil {
		return nil, err
	}
	return tk.Result(), nil
}

// BRS is Biased Random Sampling: uniform among the top TopFrac of
// candidates by predicted performance. It exploits the model's
// performance belief but ignores uncertainty entirely.
type BRS struct {
	// TopFrac is the performance-filter fraction; <= 0 defaults to 0.10.
	TopFrac float64
}

// Name implements Strategy.
func (b BRS) Name() string { return "BRS" }

// SelectStream implements Strategy. BRS keeps the bottom-k'-by-μ
// candidate list (k' = ceil(TopFrac·n), in ascending (μ, ordinal) order)
// via a bounded reducer, then samples uniformly from it. The reducer
// holds k' entries — the strategy is defined over that subset, so
// O(frac·n) selection state is inherent to it.
func (b BRS) SelectStream(ps PoolStream, nBatch int) ([]int, error) {
	nBatch = clampBatch(ps, nBatch)
	if nBatch == 0 {
		return nil, nil
	}
	k := perfCutoff(ps.Len(), nBatch, b.TopFrac, 0.10)
	bk := pool.NewBottomK(k)
	if err := ps.Scan(func(ord int, _ []float64, mu, _ float64) {
		bk.Push(ord, mu, nil)
	}); err != nil {
		return nil, err
	}
	cand := bk.Result()
	pick := ps.Rand().Sample(len(cand), nBatch)
	out := make([]int, nBatch)
	for i, j := range pick {
		out[i] = cand[j]
	}
	return out, nil
}

// BestPerf greedily evaluates the candidates with the best (smallest)
// predicted execution time — pure exploitation.
type BestPerf struct{}

// Name implements Strategy.
func (BestPerf) Name() string { return "BestPerf" }

// SelectStream implements Strategy.
func (BestPerf) SelectStream(ps PoolStream, nBatch int) ([]int, error) {
	return selectTopK(ps, nBatch, func(mu, _ float64) float64 { return -mu })
}

// MaxU evaluates the candidates with the largest uncertainty — the
// classic active-learning uncertainty sampling, pure exploration.
type MaxU struct{}

// Name implements Strategy.
func (MaxU) Name() string { return "MaxU" }

// SelectStream implements Strategy.
func (MaxU) SelectStream(ps PoolStream, nBatch int) ([]int, error) {
	return selectTopK(ps, nBatch, func(_, sigma float64) float64 { return sigma })
}

// Random selects uniformly from the remaining pool — the traditional
// random-uniform-sampling baseline of conventional empirical modeling.
type Random struct{}

// Name implements Strategy.
func (Random) Name() string { return "Random" }

// SelectStream implements Strategy. Random needs no scan at all — it
// draws ordinals directly from the generator.
func (Random) SelectStream(ps PoolStream, nBatch int) ([]int, error) {
	return ps.Rand().Sample(ps.Len(), clampBatch(ps, nBatch)), nil
}

// EI is the Expected Improvement acquisition of sequential model-based
// optimisation (Hutter et al.'s SMAC, discussed in the paper's related
// work): for a minimisation problem with incumbent best observed time
// y*, EI(x) = (y* − μ)Φ(z) + σφ(z) with z = (y* − μ)/σ. It targets
// *optimisation* of the objective rather than *modeling* of the
// high-performance subspace, which is exactly the contrast the paper
// draws with its PWU strategy; it is included as an extension baseline.
type EI struct {
	// Xi is the exploration margin subtracted from the incumbent
	// (0 = plain EI).
	Xi float64
}

// Name implements Strategy.
func (EI) Name() string { return "EI" }

// Score computes the expected improvement of a candidate.
func (e EI) Score(mu, sigma, bestY float64) float64 {
	improve := bestY - e.Xi - mu
	if sigma < 1e-12 {
		if improve > 0 {
			return improve
		}
		return 0
	}
	z := improve / sigma
	return improve*normCDF(z) + sigma*normPDF(z)
}

// SelectStream implements Strategy.
func (e EI) SelectStream(ps PoolStream, nBatch int) ([]int, error) {
	bestY := ps.BestY()
	return selectTopK(ps, nBatch, func(mu, sigma float64) float64 {
		return e.Score(mu, sigma, bestY)
	})
}

// normCDF is the standard normal CDF.
func normCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// normPDF is the standard normal density.
func normPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

// CV scores candidates by the coefficient of variation σ/μ — PWU's α→0
// limit, kept as a named strategy for the score ablation.
type CV struct{}

// Name implements Strategy.
func (CV) Name() string { return "CV" }

// SelectStream implements Strategy.
func (CV) SelectStream(ps PoolStream, nBatch int) ([]int, error) {
	return PWU{Alpha: 0}.SelectStream(ps, nBatch)
}

// ByName returns the strategy registered under name, configured with the
// paper's defaults; alpha parameterizes PWU. Recognised names: PWU, PBUS,
// BRS, BestPerf, MaxU, Random, CV, EI.
func ByName(name string, alpha float64) (Strategy, error) {
	switch name {
	case "PWU":
		return PWU{Alpha: alpha}, nil
	case "PBUS":
		return PBUS{}, nil
	case "BRS":
		return BRS{}, nil
	case "BestPerf":
		return BestPerf{}, nil
	case "MaxU":
		return MaxU{}, nil
	case "Random":
		return Random{}, nil
	case "CV":
		return CV{}, nil
	case "EI":
		return EI{}, nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q", name)
	}
}

// StrategyNames lists the registered strategy names in the order the
// paper's figures present them.
func StrategyNames() []string {
	return []string{"PWU", "PBUS", "BRS", "BestPerf", "MaxU", "Random"}
}
