package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Piecewise is a continuous piecewise-linear function defined by breakpoints
// sorted by X. Evaluation outside the breakpoint range extrapolates using the
// first or last segment (matching how the paper's model interpolates between
// measured per-cell cost samples and extends beyond them).
type Piecewise struct {
	xs, ys []float64
}

// NewPiecewise builds a piecewise-linear function from sample points. Points
// are sorted by x; duplicate x values are rejected. At least one point is
// required (a single point yields a constant function).
func NewPiecewise(xs, ys []float64) (*Piecewise, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("linalg: NewPiecewise length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return nil, errors.New("linalg: NewPiecewise needs at least 1 point")
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	sx := make([]float64, len(xs))
	sy := make([]float64, len(ys))
	for i, j := range idx {
		sx[i] = xs[j]
		sy[i] = ys[j]
	}
	for i := 1; i < len(sx); i++ {
		if sx[i] == sx[i-1] {
			return nil, fmt.Errorf("linalg: NewPiecewise duplicate x value %g", sx[i])
		}
	}
	return &Piecewise{xs: sx, ys: sy}, nil
}

// MustPiecewise is like NewPiecewise but panics on error; intended for
// statically known tables.
func MustPiecewise(xs, ys []float64) *Piecewise {
	p, err := NewPiecewise(xs, ys)
	if err != nil {
		panic(err)
	}
	return p
}

// Eval evaluates the piecewise-linear function at x.
func (p *Piecewise) Eval(x float64) float64 {
	n := len(p.xs)
	if n == 1 {
		return p.ys[0]
	}
	// Locate the segment: the largest i with xs[i] <= x (clamped for
	// extrapolation).
	i := sort.SearchFloat64s(p.xs, x)
	switch {
	case i <= 0:
		i = 1
	case i >= n:
		i = n - 1
	default:
		// xs[i-1] < x <= xs[i]; interpolate on segment (i-1, i).
	}
	x0, x1 := p.xs[i-1], p.xs[i]
	y0, y1 := p.ys[i-1], p.ys[i]
	t := (x - x0) / (x1 - x0)
	return y0 + t*(y1-y0)
}

// EvalLog evaluates the function with interpolation performed in log-x space,
// which is appropriate for per-cell cost curves sampled at log-spaced cell
// counts (Figure 3 in the paper). All breakpoints must have positive x.
func (p *Piecewise) EvalLog(x float64) float64 {
	n := len(p.xs)
	if n == 1 {
		return p.ys[0]
	}
	if x <= 0 {
		return p.ys[0]
	}
	lx := math.Log(x)
	i := sort.SearchFloat64s(p.xs, x)
	switch {
	case i <= 0:
		i = 1
	case i >= n:
		i = n - 1
	}
	x0, x1 := p.xs[i-1], p.xs[i]
	if x0 <= 0 || x1 <= 0 {
		// Fall back to linear interpolation when log space is unusable.
		return p.Eval(x)
	}
	l0, l1 := math.Log(x0), math.Log(x1)
	t := (lx - l0) / (l1 - l0)
	return p.ys[i-1] + t*(p.ys[i]-p.ys[i-1])
}

// Len returns the number of breakpoints.
func (p *Piecewise) Len() int { return len(p.xs) }
