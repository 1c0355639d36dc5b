// Package linalg provides the small dense linear-algebra kernel the
// Gaussian-process surrogate needs: Cholesky factorization of symmetric
// positive-definite matrices and the associated triangular solves.
//
// Matrices are row-major [][]float64; all routines are single-threaded
// (GP training sets here are at most a few hundred points, far below any
// parallelisation threshold).
package linalg

import (
	"fmt"
	"math"
)

// Cholesky computes the lower-triangular factor L with A = L Lᵀ. A must
// be symmetric positive definite; a non-positive pivot returns an error
// (callers typically add jitter to the diagonal and retry). A is not
// modified.
func Cholesky(A [][]float64) ([][]float64, error) {
	n := len(A)
	for i, row := range A {
		if len(row) != n {
			return nil, fmt.Errorf("linalg: row %d has %d columns, want %d", i, len(row), n)
		}
	}
	L := make([][]float64, n)
	for i := range L {
		L[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := A[i][j]
			for k := 0; k < j; k++ {
				sum -= L[i][k] * L[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("linalg: non-positive pivot %g at %d", sum, i)
				}
				L[i][i] = math.Sqrt(sum)
			} else {
				L[i][j] = sum / L[j][j]
			}
		}
	}
	return L, nil
}

// SolveLower solves L x = b for lower-triangular L by forward
// substitution.
func SolveLower(L [][]float64, b []float64) []float64 {
	n := len(b)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= L[i][k] * x[k]
		}
		x[i] = sum / L[i][i]
	}
	return x
}

// SolveUpperT solves Lᵀ x = b for lower-triangular L (i.e. an upper
// triangular solve against the transpose) by back substitution.
func SolveUpperT(L [][]float64, b []float64) []float64 {
	n := len(b)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= L[k][i] * x[k]
		}
		x[i] = sum / L[i][i]
	}
	return x
}

// CholeskySolve solves A x = b given A's Cholesky factor L.
func CholeskySolve(L [][]float64, b []float64) []float64 {
	return SolveUpperT(L, SolveLower(L, b))
}

// LogDetFromChol returns log|A| from A's Cholesky factor L:
// 2 Σ log L_ii.
func LogDetFromChol(L [][]float64) float64 {
	var acc float64
	for i := range L {
		acc += math.Log(L[i][i])
	}
	return 2 * acc
}

// Dot returns the inner product of a and b; it panics on length
// mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var acc float64
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc
}
