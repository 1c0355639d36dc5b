// Package metrics implements the paper's evaluation metrics.
//
// The paper measures (a) the Root Mean-Square Error restricted to the
// top-⌊nα⌋ best-performing test samples (Eq. 2) — because the point of
// the model is to be accurate where performance is good — and (b) the
// Cumulative time Cost CC (Eq. 3), the total execution time spent
// labeling the training samples. Fig. 7 derives a speedup: the ratio of
// the cumulative costs two methods need to first reach the same error
// level.
//
// Performance convention: observations are execution times in seconds,
// so smaller y means higher performance.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// TopAlphaIndices returns the indices of the m = ⌊nα⌋ best-performing
// (smallest execution time) observations, per Eq. 2. If ⌊nα⌋ is zero it
// returns the single best index so the metric stays defined, mirroring
// the "top-1" degenerate case. It panics for α outside (0, 1].
func TopAlphaIndices(y []float64, alpha float64) []int {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("metrics: alpha %v outside (0,1]", alpha))
	}
	if len(y) == 0 {
		return nil
	}
	m := int(float64(len(y)) * alpha)
	if m < 1 {
		m = 1
	}
	order := stats.ArgSort(y)
	return order[:m]
}

// RMSEAtAlpha implements Eq. 2: RMSE over the top-⌊nα⌋ samples of y in
// performance ranking (ascending execution time).
func RMSEAtAlpha(y, yhat []float64, alpha float64) float64 {
	if len(y) != len(yhat) {
		panic("metrics: RMSEAtAlpha length mismatch")
	}
	return RMSEAt(y, yhat, TopAlphaIndices(y, alpha))
}

// RMSEAt is the RMSE over the samples idx, summed in idx order. With idx
// = TopAlphaIndices(y, α) it equals RMSEAtAlpha(y, yhat, α) exactly; a
// caller scoring many predictions against fixed labels computes the
// index set once. Empty idx yields NaN.
func RMSEAt(y, yhat []float64, idx []int) float64 {
	if len(y) != len(yhat) {
		panic("metrics: RMSEAt length mismatch")
	}
	if len(idx) == 0 {
		return math.NaN()
	}
	var sse float64
	for _, i := range idx {
		d := y[i] - yhat[i]
		sse += d * d
	}
	return math.Sqrt(sse / float64(len(idx)))
}

// CumulativeCost implements Eq. 3: the sum of the execution times of all
// labeled samples.
func CumulativeCost(y []float64) float64 {
	return stats.Sum(y)
}

// Curve is a learning curve: one value per evaluation checkpoint, indexed
// by the number of labeled samples at that checkpoint.
type Curve struct {
	Samples []int     // training-set size at each checkpoint
	Values  []float64 // metric value at each checkpoint
}

// Len returns the number of checkpoints.
func (c Curve) Len() int { return len(c.Samples) }

// FirstReach returns the index of the first checkpoint whose value is <=
// target, or -1 if the curve never reaches it.
func (c Curve) FirstReach(target float64) int {
	for i, v := range c.Values {
		if v <= target {
			return i
		}
	}
	return -1
}

// CostToReach returns the cumulative cost at the first checkpoint where
// rmse <= target, where cost is a curve aligned with rmse (same
// checkpoints). ok=false if the target is never reached.
func CostToReach(rmse, cost Curve, target float64) (float64, bool) {
	if len(rmse.Values) != len(cost.Values) {
		panic("metrics: misaligned curves")
	}
	i := rmse.FirstReach(target)
	if i < 0 {
		return 0, false
	}
	return cost.Values[i], true
}

// SpeedupToTarget computes Fig. 7's statistic: the ratio of the
// cumulative cost the baseline needs to reach the error target to the
// cost the method needs. The target is chosen as the max of the two
// curves' final (converged) RMSE values scaled by headroom (e.g. 1.05),
// so both methods provably reach it. Returns the speedup and the target
// used; ok=false if either curve is empty or never reaches the target.
//
// A zero reaching cost is legitimate, not an error: when the NInit
// cold-start labels are free (or the synthetic evaluator charges
// nothing) the first checkpoint sits at cost 0, and a method can hit
// the target there. Both costs zero means neither method did paid work
// to reach the target — speedup 1. Only the method at zero cost means
// an unbounded speedup, reported as +Inf.
func SpeedupToTarget(methodRMSE, methodCost, baseRMSE, baseCost Curve, headroom float64) (speedup, target float64, ok bool) {
	if methodRMSE.Len() == 0 || baseRMSE.Len() == 0 {
		return 0, 0, false
	}
	mFinal := methodRMSE.Values[methodRMSE.Len()-1]
	bFinal := baseRMSE.Values[baseRMSE.Len()-1]
	target = math.Max(mFinal, bFinal) * headroom
	mCost, ok1 := CostToReach(methodRMSE, methodCost, target)
	bCost, ok2 := CostToReach(baseRMSE, baseCost, target)
	if !ok1 || !ok2 || mCost < 0 {
		return 0, target, false
	}
	if mCost == 0 {
		if bCost == 0 {
			return 1, target, true
		}
		return math.Inf(1), target, true
	}
	return bCost / mCost, target, true
}
