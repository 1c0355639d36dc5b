package forest

import (
	"fmt"
	"sort"
)

// PredictQuantile returns the q-quantile of the forest's predictive
// distribution at x, following Meinshausen's quantile regression
// forests: the empirical distribution is the union of the training
// targets of the leaves x falls into across all trees. It requires the
// forest to have been fitted with Config.Tree.KeepTargets.
//
// Quantiles give the tuner a risk view a mean cannot: the q=0.9 time of
// a configuration bounds how badly a run may go when measurement noise
// or modeled cliffs bite.
func (f *Forest) PredictQuantile(x []float64, q float64) (float64, error) {
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("forest: quantile %v outside [0,1]", q)
	}
	var pool []float64
	for _, tr := range f.trees {
		ts := tr.LeafTargets(x)
		if ts == nil {
			return 0, fmt.Errorf("forest: fitted without Tree.KeepTargets; quantiles unavailable")
		}
		pool = append(pool, ts...)
	}
	if len(pool) == 0 {
		return 0, fmt.Errorf("forest: no leaf targets at x")
	}
	sort.Float64s(pool)
	if len(pool) == 1 {
		return pool[0], nil
	}
	pos := q * float64(len(pool)-1)
	lo := int(pos)
	if lo == len(pool)-1 {
		return pool[lo], nil
	}
	frac := pos - float64(lo)
	return pool[lo]*(1-frac) + pool[lo+1]*frac, nil
}
