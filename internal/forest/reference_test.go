package forest

import (
	"encoding/json"
	"testing"
)

// This file holds the scoring oracle of the flat tree engine: the forest
// prediction walked through pointer trees decoded from the forest's own
// JSON, with the float compare x <= t and bool category lists — so it
// shares neither tree.Key nor the flat node layout with the engine.
// TestPredictBatchMatchesReference and TestExactKernelsBitIdentical pin
// the engine to it bit for bit, and BenchmarkPredictBatch7000Reference
// is the speedup baseline.

// wireNode is one tree node as the wire form writes it.
type wireNode struct {
	F    int       `json:"f"`
	T    float64   `json:"t"`
	CL   []int     `json:"cl"`
	NC   int       `json:"nc"`
	L    *wireNode `json:"l"`
	R    *wireNode `json:"r"`
	M    float64   `json:"m"`
	V    float64   `json:"v"`
	cats []bool    // category-membership of the left child, from CL and NC
}

// setCats fills every categorical node's bool category list.
func (n *wireNode) setCats() {
	if n.L == nil {
		return
	}
	if n.NC > 0 {
		n.cats = make([]bool, n.NC)
		for _, c := range n.CL {
			n.cats[c] = true
		}
	}
	n.L.setCats()
	n.R.setCats()
}

// leaf walks x to its leaf: negative and out-of-range category codes go
// right, and a NaN goes right at every numeric split.
func (n *wireNode) leaf(x []float64) *wireNode {
	for n.L != nil {
		goLeft := false
		if n.cats != nil {
			c := int(x[n.F])
			goLeft = c >= 0 && c < len(n.cats) && n.cats[c]
		} else {
			goLeft = x[n.F] <= n.T
		}
		if goLeft {
			n = n.L
		} else {
			n = n.R
		}
	}
	return n
}

// referenceForest is a forest's trees as decoded pointer trees.
type referenceForest struct {
	f     *Forest
	roots []*wireNode
}

// newReference decodes f's trees from f's JSON.
func newReference(t testing.TB, f *Forest) *referenceForest {
	t.Helper()
	data, err := f.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Trees []struct {
			Root *wireNode `json:"root"`
		} `json:"trees"`
	}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	ref := &referenceForest{f: f}
	for _, tr := range d.Trees {
		tr.Root.setCats()
		ref.roots = append(ref.roots, tr.Root)
	}
	return ref
}

// predict is PredictWithUncertainty on the pointer trees; the Welford
// accumulation is kept operation-for-operation identical so the two
// engines return bit-identical results.
func (r *referenceForest) predict(x []float64) (mu, sigma float64) {
	var mean, m2, leafVar float64
	for t, root := range r.roots {
		l := root.leaf(x)
		d := l.M - mean
		mean += d / float64(t+1)
		m2 += d * (l.M - mean)
		leafVar += l.V
	}
	return r.f.finishMoments(mean, m2, leafVar)
}

// predictBatch predicts all rows of X in parallel through predict.
func (r *referenceForest) predictBatch(X [][]float64) (mu, sigma []float64) {
	n := len(X)
	mu = make([]float64, n)
	sigma = make([]float64, n)
	r.f.parallelRows(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mu[i], sigma[i] = r.predict(X[i])
		}
	})
	return mu, sigma
}
