package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomSPD builds a random symmetric positive-definite matrix
// A = M Mᵀ + n·I.
func randomSPD(r *rng.RNG, n int) [][]float64 {
	M := make([][]float64, n)
	for i := range M {
		M[i] = make([]float64, n)
		for j := range M[i] {
			M[i][j] = r.Normal(0, 1)
		}
	}
	A := make([][]float64, n)
	for i := range A {
		A[i] = make([]float64, n)
		for j := range A[i] {
			for k := 0; k < n; k++ {
				A[i][j] += M[i][k] * M[j][k]
			}
		}
		A[i][i] += float64(n)
	}
	return A
}

func TestCholeskyReconstructs(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 5, 20} {
		A := randomSPD(r, n)
		L, err := Cholesky(A)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var rec float64
				for k := 0; k < n; k++ {
					rec += L[i][k] * L[j][k]
				}
				if math.Abs(rec-A[i][j]) > 1e-9*float64(n) {
					t.Fatalf("n=%d: LL^T[%d][%d] = %v, want %v", n, i, j, rec, A[i][j])
				}
			}
		}
		// Strictly lower triangular.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if L[i][j] != 0 {
					t.Fatal("L not lower triangular")
				}
			}
		}
	}
}

func TestCholeskyRejectsNonPD(t *testing.T) {
	A := [][]float64{{1, 2}, {2, 1}} // eigenvalues 3, -1
	if _, err := Cholesky(A); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
	bad := [][]float64{{1, 2}, {2}}
	if _, err := Cholesky(bad); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestCholeskySolve(t *testing.T) {
	r := rng.New(2)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		n := 1 + rr.Intn(15)
		A := randomSPD(rr, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rr.Normal(0, 3)
		}
		b := make([]float64, n)
		for i, row := range A {
			b[i] = Dot(row, xTrue)
		}
		L, err := Cholesky(A)
		if err != nil {
			return false
		}
		x := CholeskySolve(L, b)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestTriangularSolves(t *testing.T) {
	L := [][]float64{{2, 0}, {1, 3}}
	// L x = (4, 7): x = (2, 5/3)
	x := SolveLower(L, []float64{4, 7})
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-5.0/3) > 1e-12 {
		t.Fatalf("SolveLower = %v", x)
	}
	// Lᵀ y = (4, 6): y1 = 2, y0 = (4 - 1*2)/2 = 1
	y := SolveUpperT(L, []float64{4, 6})
	if math.Abs(y[1]-2) > 1e-12 || math.Abs(y[0]-1) > 1e-12 {
		t.Fatalf("SolveUpperT = %v", y)
	}
}

func TestLogDet(t *testing.T) {
	A := [][]float64{{4, 0}, {0, 9}} // det = 36
	L, err := Cholesky(A)
	if err != nil {
		t.Fatal(err)
	}
	if got := LogDetFromChol(L); math.Abs(got-math.Log(36)) > 1e-12 {
		t.Fatalf("logdet = %v", got)
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}
