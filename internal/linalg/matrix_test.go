package linalg

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// fromRows builds a matrix from a literal of equal-length rows.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

func TestNewMatrixShape(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("fresh matrix not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(0, 2) did not panic")
		}
	}()
	NewMatrix(0, 2)
}

func TestSetAtAdd(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2.5)
	if got := m.At(0, 1); got != 7.5 {
		t.Fatalf("At(0,1) = %v, want 7.5", got)
	}
}

func TestClone(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	cl := a.Clone()
	cl.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Fatal("Clone shares storage with original")
	}
	if cl.At(1, 1) != 4 {
		t.Fatalf("Clone(1,1) = %v, want 4", cl.At(1, 1))
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v, want 0", got)
	}
	// Norm2 must not overflow for large entries.
	if got := Norm2([]float64{1e308, 1e308}); math.IsInf(got, 0) {
		t.Fatal("Norm2 overflowed")
	}
}
