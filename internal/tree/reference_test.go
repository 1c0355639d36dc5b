package tree

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

// This file retains the per-node-sorting CART builder that predates the
// presorted-column engine (presort.go) as the test oracle: presort_test.go
// asserts that both builders produce bit-identical trees while consuming
// identical RNG streams, and BenchmarkFitReference500x20 measures the
// presorted engine's speedup against it.
//
// Two semantic anchors are shared with the presorted engine so that
// bit-identity is well defined:
//
//   - Numeric columns are ordered by (value, sample index). The sample
//     index tie-break makes the order unique, so prefix sums of tied
//     target values accumulate in the same sequence in both builders.
//   - Categories are ordered by (mean target, category index), again a
//     unique total order.

// FitReference builds a regression tree with the reference builder:
// every numeric candidate feature is re-sorted at every node. It accepts
// exactly the inputs of Fit and produces a bit-identical tree.
func FitReference(X [][]float64, y []float64, features []space.Feature, cfg Config, r *rng.RNG) (*Regressor, error) {
	mtry, err := validateFit(X, y, features, cfg, r)
	if err != nil {
		return nil, err
	}
	b := &refBuilder{X: X, y: y, features: features, cfg: cfg, mtry: mtry, r: r}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	root := b.build(idx, 0)
	return &Regressor{features: features, root: root, cfg: cfg}, nil
}

// validateFit checks the (X, y, features, cfg, r) combination Fit
// accepts and resolves the effective mtry.
func validateFit(X [][]float64, y []float64, features []space.Feature, cfg Config, r *rng.RNG) (mtry int, err error) {
	if err := validateMatrix(X, features); err != nil {
		return 0, err
	}
	if len(X) != len(y) {
		return 0, fmt.Errorf("tree: len(X)=%d but len(y)=%d", len(X), len(y))
	}
	return resolveMtry(len(features), cfg, r)
}

// refBuilder carries the shared state of one reference induction run.
type refBuilder struct {
	X        [][]float64
	y        []float64
	features []space.Feature
	cfg      Config
	mtry     int
	r        *rng.RNG

	// order is the identity feature visitation order, reused across
	// nodes when no subspacing is needed.
	order []int
}

// leafStats computes mean/variance/count of y over idx.
func (b *refBuilder) leafStats(idx []int) (mean, variance float64, count int) {
	var sum, sumSq float64
	for _, i := range idx {
		sum += b.y[i]
		sumSq += b.y[i] * b.y[i]
	}
	n := float64(len(idx))
	mean = sum / n
	variance = sumSq/n - mean*mean
	if variance < 0 {
		variance = 0 // guard against catastrophic cancellation
	}
	return mean, variance, len(idx)
}

func (b *refBuilder) makeLeaf(idx []int, mean, variance float64, count int) *node {
	n := &node{mean: mean, variance: variance, count: count}
	if b.cfg.KeepTargets {
		n.targets = make([]float64, len(idx))
		for i, j := range idx {
			n.targets[i] = b.y[j]
		}
		sort.Float64s(n.targets)
	}
	return n
}

func (b *refBuilder) build(idx []int, depth int) *node {
	// The node statistics double as the purity check and the leaf (or
	// internal-node diagnostic) payload; compute them once.
	mean, variance, count := b.leafStats(idx)
	if count < b.cfg.minSplit() || (b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return b.makeLeaf(idx, mean, variance, count)
	}
	if variance <= 1e-300 { // pure node
		return b.makeLeaf(idx, mean, variance, count)
	}

	best := b.findSplit(idx)
	if !best.valid || best.gain < b.cfg.MinImpurityDecrease {
		return b.makeLeaf(idx, mean, variance, count)
	}

	leftIdx, rightIdx := b.partition(idx, best)
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		// Defensive: a degenerate partition means the split was not real.
		return b.makeLeaf(idx, mean, variance, count)
	}
	n := &node{
		feature: best.feature, threshold: best.threshold, catLeft: best.catLeft,
		mean: mean, variance: variance, count: count,
	}
	n.left = b.build(leftIdx, depth+1)
	n.right = b.build(rightIdx, depth+1)
	return n
}

// findSplit scans a random-subspace sample of features and returns the
// best split. Features that are constant on idx do not consume the mtry
// quota.
func (b *refBuilder) findSplit(idx []int) split {
	d := len(b.features)
	perm := b.featureOrder(d)
	var best split
	examined := 0
	for _, f := range perm {
		if examined >= b.mtry && best.valid {
			break
		}
		var s split
		var constant bool
		if b.features[f].Kind == space.FeatCategorical {
			s, constant = b.bestCategoricalSplit(idx, f)
		} else {
			s, constant = b.bestNumericSplit(idx, f)
		}
		if constant {
			continue
		}
		examined++
		if s.valid && (!best.valid || s.gain > best.gain) {
			best = s
		}
	}
	return best
}

// featureOrder returns the feature visitation order: a random permutation
// when subspacing, or identity when considering all features.
func (b *refBuilder) featureOrder(d int) []int {
	if b.mtry >= d || b.r == nil {
		if cap(b.order) < d {
			b.order = make([]int, d)
		}
		ord := b.order[:d]
		for i := range ord {
			ord[i] = i
		}
		return ord
	}
	return b.r.Perm(d)
}

// bestNumericSplit finds the best threshold split of feature f over idx.
// constant reports whether the feature takes a single value on idx.
func (b *refBuilder) bestNumericSplit(idx []int, f int) (split, bool) {
	n := len(idx)
	ord := make([]int, n)
	copy(ord, idx)
	sort.Slice(ord, func(a, c int) bool {
		va, vc := b.X[ord[a]][f], b.X[ord[c]][f]
		if va != vc {
			return va < vc
		}
		return ord[a] < ord[c] // unique order: ties stay in sample order
	})
	if b.X[ord[0]][f] == b.X[ord[n-1]][f] {
		return split{}, true
	}

	minLeaf := b.cfg.minLeaf()
	var totalSum, totalSq float64
	for _, i := range ord {
		totalSum += b.y[i]
		totalSq += b.y[i] * b.y[i]
	}
	parentSSE := totalSq - totalSum*totalSum/float64(n)

	best := split{feature: f}
	var leftSum, leftSq float64
	for k := 0; k < n-1; k++ {
		i := ord[k]
		leftSum += b.y[i]
		leftSq += b.y[i] * b.y[i]
		if b.X[ord[k]][f] == b.X[ord[k+1]][f] {
			continue // can only split between distinct values
		}
		nl, nr := k+1, n-k-1
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		rightSum := totalSum - leftSum
		rightSq := totalSq - leftSq
		sse := (leftSq - leftSum*leftSum/float64(nl)) + (rightSq - rightSum*rightSum/float64(nr))
		gain := parentSSE - sse
		if !best.valid || gain > best.gain {
			best.valid = true
			best.gain = gain
			best.threshold = (b.X[ord[k]][f] + b.X[ord[k+1]][f]) / 2
		}
	}
	return best, false
}

// bestCategoricalSplit finds the best subset split of categorical feature
// f over idx using the sort-categories-by-mean reduction.
func (b *refBuilder) bestCategoricalSplit(idx []int, f int) (split, bool) {
	ncat := b.features[f].NumCategories
	statsByCat := make([]catStat, ncat)
	for c := range statsByCat {
		statsByCat[c].cat = c
	}
	for _, i := range idx {
		c := int(b.X[i][f])
		if c < 0 || c >= ncat {
			// Out-of-range category values should be impossible for
			// encodings produced by space.Encode; treat as last category.
			c = ncat - 1
		}
		statsByCat[c].count++
		statsByCat[c].sum += b.y[i]
		statsByCat[c].sumSq += b.y[i] * b.y[i]
	}
	present := statsByCat[:0:0]
	for _, s := range statsByCat {
		if s.count > 0 {
			present = append(present, s)
		}
	}
	if len(present) < 2 {
		return split{}, true
	}
	sort.Slice(present, func(a, c int) bool {
		ma := present[a].sum / float64(present[a].count)
		mc := present[c].sum / float64(present[c].count)
		if ma != mc {
			return ma < mc
		}
		return present[a].cat < present[c].cat // unique order under mean ties
	})

	n := len(idx)
	var totalSum, totalSq float64
	for _, s := range present {
		totalSum += s.sum
		totalSq += s.sumSq
	}
	parentSSE := totalSq - totalSum*totalSum/float64(n)
	minLeaf := b.cfg.minLeaf()

	best := split{feature: f}
	bestPrefix := -1
	var leftSum, leftSq float64
	leftCount := 0
	for k := 0; k < len(present)-1; k++ {
		leftSum += present[k].sum
		leftSq += present[k].sumSq
		leftCount += present[k].count
		nl, nr := leftCount, n-leftCount
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		rightSum := totalSum - leftSum
		rightSq := totalSq - leftSq
		sse := (leftSq - leftSum*leftSum/float64(nl)) + (rightSq - rightSum*rightSum/float64(nr))
		gain := parentSSE - sse
		if !best.valid || gain > best.gain {
			best.valid = true
			best.gain = gain
			bestPrefix = k
		}
	}
	if best.valid {
		catLeft := make([]bool, ncat)
		for k := 0; k <= bestPrefix; k++ {
			catLeft[present[k].cat] = true
		}
		best.catLeft = catLeft
	}
	return best, false
}

// partition splits idx by s into left/right index slices.
func (b *refBuilder) partition(idx []int, s split) (left, right []int) {
	for _, i := range idx {
		if b.goesLeft(b.X[i], s.feature, s.threshold, s.catLeft) {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return left, right
}

func (b *refBuilder) goesLeft(x []float64, f int, threshold float64, catLeft []bool) bool {
	if catLeft != nil {
		c := int(x[f])
		return c >= 0 && c < len(catLeft) && catLeft[c]
	}
	return x[f] <= threshold
}

// BenchmarkFitReference500x20 is BenchmarkFit500x20 on the reference
// builder; the trees are bit-identical, so the ratio of the two is pure
// engine speedup.
func BenchmarkFitReference500x20(b *testing.B) {
	X, y := fitBenchData()
	fs := numFeatures(len(X[0]))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitReference(X, y, fs, Config{MaxFeatures: 7}, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
