package partition

import (
	"math"
	"strings"
	"testing"
)

// TestMoveWindowMatchesBalancePredicate checks that moveWindow's weight
// interval admits exactly the moves fmRefine's original per-candidate
// test admitted: a move is rejected when it leaves side 0 outside
// [lo0, hi0] and no closer to target0. The enumeration covers weight 0,
// moves that overshoot side 0's weight, and w0 below, inside and above
// the tolerance window, with lo0/hi0 derived from tol as fmRefine
// derives them.
func TestMoveWindowMatchesBalancePredicate(t *testing.T) {
	tols := []float64{0.002, 0.01, 0.05, 0.1, 0.25, 0.5, 1}
	check := func(target0, w0 int64, tol float64, weights []int64) {
		lo0 := int64(float64(target0) * (1 - tol))
		hi0 := int64(float64(target0) * (1 + tol))
		if lo0 > target0 || target0 > hi0 {
			t.Fatalf("target0 %d, tol %g: window [%d, %d] excludes the target", target0, tol, lo0, hi0)
		}
		dist := func(w int64) int64 {
			if w > target0 {
				return w - target0
			}
			return target0 - w
		}
		lo, hi := moveWindow(w0, target0, lo0, hi0)
		for _, wv := range weights {
			for s, nw0 := range [2]int64{w0 - wv, w0 + wv} {
				want := !((nw0 < lo0 || nw0 > hi0) && dist(nw0) >= dist(w0))
				if got := wv >= lo[s] && wv <= hi[s]; got != want {
					t.Fatalf("target0 %d tol %g w0 %d: weight %d off side %d admitted %v, predicate says %v",
						target0, tol, w0, wv, s, got, want)
				}
			}
		}
	}

	small := make([]int64, 120)
	for i := range small {
		small[i] = int64(i)
	}
	for target0 := int64(0); target0 <= 60; target0++ {
		for _, tol := range tols {
			for w0 := int64(0); w0 <= 110; w0++ {
				check(target0, w0, tol, small)
			}
		}
	}
	// Large targets, where the tolerance window is wide and w0 sits near
	// its edges or the target.
	for _, target0 := range []int64{1 << 20, 999_983, 1 << 40, 1 << 53} {
		for _, tol := range tols {
			lo0 := int64(float64(target0) * (1 - tol))
			hi0 := int64(float64(target0) * (1 + tol))
			var weights []int64
			for _, c := range []int64{0, lo0, target0, hi0, hi0 - lo0} {
				for d := int64(-3); d <= 3; d++ {
					for _, w := range []int64{c + d, target0 - c + d} {
						if w >= 0 {
							weights = append(weights, w)
						}
					}
				}
			}
			for _, c := range []int64{lo0, target0, hi0, 2 * target0} {
				for d := int64(-3); d <= 3; d++ {
					if w0 := c + d; w0 >= 0 {
						check(target0, w0, tol, weights)
					}
				}
			}
		}
	}
}

// TestPartitionRejectsOutOfDomainBalance pins the inputs outside the
// domain where fmRefine's move window is exact: negative vertex weights
// (for every partitioner, through validateArgs) and a multilevel
// imbalance tolerance above 1 or NaN.
func TestPartitionRejectsOutOfDomainBalance(t *testing.T) {
	g := buildGraph(t, 8, 8)
	g.VWgt[5] = -1
	for _, pr := range []Partitioner{NewMultilevel(1), RCB{}, SFC{}, Strips{}, Random{Seed: 1}} {
		if _, err := pr.Partition(g, 4); err == nil || !strings.Contains(err.Error(), "negative weight") {
			t.Errorf("%s: negative vertex weight gave err %v", pr.Name(), err)
		}
	}
	g.VWgt[5] = 1
	for _, tol := range []float64{1.5, math.Inf(1), math.NaN()} {
		ml := NewMultilevel(1)
		ml.MaxImbalance = tol
		if _, err := ml.Partition(g, 4); err == nil {
			t.Errorf("MaxImbalance %g accepted", tol)
		}
	}
	for _, tol := range []float64{0, 1} {
		ml := NewMultilevel(1)
		ml.MaxImbalance = tol
		part, err := ml.Partition(g, 4)
		if err != nil {
			t.Fatalf("MaxImbalance %g: %v", tol, err)
		}
		checkPartition(t, g, part, 4)
	}
}
