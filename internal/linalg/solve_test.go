package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQRExactSystem(t *testing.T) {
	// Square system: least squares must reproduce the exact solution.
	a := fromRows([][]float64{
		{1, 1},
		{1, 2},
	})
	x, err := LeastSquares(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 1, 1e-10) || !almostEqual(x[1], 2, 1e-10) {
		t.Fatalf("x = %v, want [1 2]", x)
	}
}

func TestQROverdetermined(t *testing.T) {
	// y = 2 + 3x sampled with zero noise at 5 points.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewMatrix(len(xs), 2)
	b := make([]float64, len(xs))
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2 + 3*x
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 2, 1e-10) || !almostEqual(x[1], 3, 1e-10) {
		t.Fatalf("fit = %v, want [2 3]", x)
	}
}

func TestQRUnderdeterminedRejected(t *testing.T) {
	if _, err := FactorQR(NewMatrix(2, 3)); err == nil {
		t.Fatal("m < n accepted")
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Two identical columns: rank deficient.
	a := fromRows([][]float64{
		{1, 1},
		{2, 2},
		{3, 3},
	})
	_, err := LeastSquares(a, []float64{1, 2, 3})
	if err == nil {
		t.Fatal("rank-deficient system accepted")
	}
}

// Property: the least-squares residual is orthogonal to the column space.
func TestQRNormalEquationsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(10)
		n := 1 + rng.Intn(3)
		if n > m {
			n = m
		}
		a := NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // rank-deficient random draw; skip
		}
		r := make([]float64, m)
		for i := range r {
			r[i] = b[i]
			for j := 0; j < n; j++ {
				r[i] -= a.At(i, j) * x[j]
			}
		}
		// A' r must be ~0.
		for j := 0; j < n; j++ {
			var atr float64
			for i := 0; i < m; i++ {
				atr += a.At(i, j) * r[i]
			}
			if math.Abs(atr) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQRSolveRHSLengthMismatch(t *testing.T) {
	f, err := FactorQR(fromRows([][]float64{{1, 0}, {0, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestQRInvGramDiagKnown(t *testing.T) {
	// A'A = [[3 3] [3 5]], whose inverse is [[5 -3] [-3 3]]/6.
	f, err := FactorQR(fromRows([][]float64{{1, 0}, {1, 1}, {1, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	got := f.InvGramDiag()
	if !almostEqual(got[0], 5.0/6, 1e-12) || !almostEqual(got[1], 0.5, 1e-12) {
		t.Fatalf("diag((A'A)^-1) = %v, want [0.8333 0.5]", got)
	}
}

// Property: (A'A)^-1_jj = 1/RSS_j, where RSS_j is the residual sum of
// squares of column j regressed on the other columns — an independent
// route to the same diagonal through separate least-squares solves.
func TestQRInvGramDiagProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 4 + rng.Intn(10)
		n := 1 + rng.Intn(4)
		a := NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		fa, err := FactorQR(a)
		if err != nil {
			return false
		}
		if _, err := fa.Solve(make([]float64, m)); err != nil {
			return true // rank-deficient random draw; skip
		}
		got := fa.InvGramDiag()
		for j := 0; j < n; j++ {
			col := make([]float64, m)
			for i := range col {
				col[i] = a.At(i, j)
			}
			resid := col
			if n > 1 {
				others := NewMatrix(m, n-1)
				for i := 0; i < m; i++ {
					for k, c := 0, 0; k < n; k++ {
						if k != j {
							others.Set(i, c, a.At(i, k))
							c++
						}
					}
				}
				x, err := LeastSquares(others, col)
				if err != nil {
					return false
				}
				resid = make([]float64, m)
				for i := range resid {
					resid[i] = col[i]
					for k := 0; k < n-1; k++ {
						resid[i] -= others.At(i, k) * x[k]
					}
				}
			}
			rss := Norm2(resid) * Norm2(resid)
			if !almostEqual(got[j], 1/rss, 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
