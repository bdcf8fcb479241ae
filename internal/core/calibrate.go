package core

import (
	"fmt"

	"krak/internal/compute"
	"krak/internal/linalg"
	"krak/internal/mesh"
	"krak/internal/phases"
)

// ProfileFunc measures per-phase, per-processor computation times ("No MPI"
// profiling, as in Figures 2 and 3) for a partitioned deck. The calibration
// procedures know nothing about how the measurement is taken: in this
// repository the function is backed by the cluster simulator, in the
// original work it was the real application on the real machine.
type ProfileFunc func(sum *mesh.PartitionSummary) ([phases.Count][]float64, error)

// Calibrator reconstructs per-cell cost curves from measurements, per §3.1.
type Calibrator struct {
	// Profile is the measurement campaign backend. Required.
	Profile ProfileFunc
}

// DefaultContrivedSizes is the log-spaced subgrid-size ladder used by the
// contrived-grid calibration, spanning the cells-per-processor range of
// Figure 3.
func DefaultContrivedSizes() []int {
	sizes := make([]int, 0, 18)
	for n := 1; n <= 131072; n *= 2 {
		sizes = append(sizes, n)
	}
	return sizes
}

// contrivedSummary fabricates the two-process §3.1 scenario: high-explosive
// gas isolated on processor 0 (so a detonation can occur) while processor 1
// holds n cells of the probe material.
func contrivedSummary(probe mesh.Material, n int) *mesh.PartitionSummary {
	s := &mesh.PartitionSummary{
		P:               2,
		CellsByMaterial: make([][mesh.NumMaterials]int, 2),
		TotalCells:      []int{n, n},
		Pairs:           map[mesh.PairKey]*mesh.PairBoundary{},
		NeighborsOf:     make([][]int, 2),
	}
	s.CellsByMaterial[0][mesh.HEGas] = n
	s.CellsByMaterial[1][probe] = n
	return s
}

// Contrived runs the paper's first calibration method: contrived
// single-material grids over a ladder of subgrid sizes, yielding per-cell
// cost samples t/n that become piecewise-linear curves over cells per
// processor.
func (c *Calibrator) Contrived(sizes []int) (*compute.Calibrated, error) {
	if c.Profile == nil {
		return nil, fmt.Errorf("core: calibrator needs a profile function")
	}
	if len(sizes) == 0 {
		sizes = DefaultContrivedSizes()
	}
	cal := &compute.Calibrated{}
	for m := 0; m < mesh.NumMaterials; m++ {
		xs := make([]float64, 0, len(sizes))
		ys := make([][phases.Count]float64, 0, len(sizes))
		for _, n := range sizes {
			if n <= 0 {
				return nil, fmt.Errorf("core: invalid contrived size %d", n)
			}
			times, err := c.Profile(contrivedSummary(mesh.Material(m), n))
			if err != nil {
				return nil, fmt.Errorf("core: contrived profiling failed at %v n=%d: %w", mesh.Material(m), n, err)
			}
			var perCell [phases.Count]float64
			for ph := 0; ph < phases.Count; ph++ {
				if len(times[ph]) != 2 {
					return nil, fmt.Errorf("core: profile returned %d PEs, want 2", len(times[ph]))
				}
				perCell[ph] = times[ph][1] / float64(n)
			}
			xs = append(xs, float64(n))
			ys = append(ys, perCell)
		}
		for ph := 1; ph <= phases.Count; ph++ {
			curveY := make([]float64, len(xs))
			for i := range xs {
				curveY[i] = ys[i][ph-1]
			}
			curve, err := linalg.NewPiecewise(xs, curveY)
			if err != nil {
				return nil, fmt.Errorf("core: building phase %d curve: %w", ph, err)
			}
			if err := cal.SetCurve(ph, mesh.Material(m), curve); err != nil {
				return nil, err
			}
		}
	}
	return cal, nil
}

// DeckSample is one measurement campaign for the least-squares calibration:
// a partitioned deck profiled at a given processor count.
type DeckSample struct {
	Summary *mesh.PartitionSummary
}

// FromDeck runs the paper's second calibration method: "utilizes the actual
// input domain ... and involves the construction and solution of a series
// of linear equations with four variables (the computation time per cell of
// each material)". For each phase and each campaign, the per-processor
// times t_j = a + sum_m b_m n_jm are solved by least squares; the recovered
// coefficients become per-cell cost samples b_m + a/n̄ at the campaign's
// mean subgrid size n̄, interpolated piecewise across campaigns.
func (c *Calibrator) FromDeck(samples []DeckSample) (*compute.Calibrated, error) {
	if c.Profile == nil {
		return nil, fmt.Errorf("core: calibrator needs a profile function")
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: no calibration samples")
	}
	type knot struct{ x, y float64 }
	knots := [phases.Count][mesh.NumMaterials][]knot{}

	for _, s := range samples {
		sum := s.Summary
		if sum == nil || sum.P < 2 {
			return nil, fmt.Errorf("core: least-squares calibration needs >= 2 processors")
		}
		times, err := c.Profile(sum)
		if err != nil {
			return nil, fmt.Errorf("core: deck profiling failed: %w", err)
		}
		// Which materials appear anywhere in this campaign?
		var present [mesh.NumMaterials]bool
		presentList := make([]int, 0, mesh.NumMaterials)
		totalCells := 0
		for pe := 0; pe < sum.P; pe++ {
			for m, n := range sum.CellsByMaterial[pe] {
				if n > 0 && !present[m] {
					present[m] = true
				}
			}
			totalCells += sum.TotalCells[pe]
		}
		for m := 0; m < mesh.NumMaterials; m++ {
			if present[m] {
				presentList = append(presentList, m)
			}
		}
		meanCells := float64(totalCells) / float64(sum.P)
		if len(presentList) == 0 {
			return nil, fmt.Errorf("core: campaign deck has no cells")
		}

		for ph := 1; ph <= phases.Count; ph++ {
			if len(times[ph-1]) != sum.P {
				return nil, fmt.Errorf("core: profile returned %d PEs, want %d", len(times[ph-1]), sum.P)
			}
			coeffs, err := solvePhase(sum, times[ph-1], presentList)
			if err != nil {
				return nil, fmt.Errorf("core: phase %d least squares: %w", ph, err)
			}
			for _, m := range presentList {
				perCell := coeffs.perCell[m] + coeffs.fixed/meanCells
				if perCell < 0 {
					perCell = 0
				}
				knots[ph-1][m] = append(knots[ph-1][m], knot{x: meanCells, y: perCell})
			}
		}
	}

	cal := &compute.Calibrated{}
	for ph := 1; ph <= phases.Count; ph++ {
		for m := 0; m < mesh.NumMaterials; m++ {
			ks := knots[ph-1][m]
			if len(ks) == 0 {
				continue // material absent from every campaign
			}
			xs := make([]float64, 0, len(ks))
			ys := make([]float64, 0, len(ks))
			for _, k := range ks {
				// Campaigns can share a mean subgrid size; keep the first.
				dup := false
				for _, x := range xs {
					if x == k.x {
						dup = true
						break
					}
				}
				if !dup {
					xs = append(xs, k.x)
					ys = append(ys, k.y)
				}
			}
			curve, err := linalg.NewPiecewise(xs, ys)
			if err != nil {
				return nil, fmt.Errorf("core: phase %d material %d curve: %w", ph, m, err)
			}
			if err := cal.SetCurve(ph, mesh.Material(m), curve); err != nil {
				return nil, err
			}
		}
	}
	return cal, nil
}

// phaseCoeffs are the least-squares unknowns of one phase: a constant term
// plus a per-cell cost per material.
type phaseCoeffs struct {
	fixed   float64
	perCell [mesh.NumMaterials]float64
}

// solvePhase solves t_j = a + sum_m b_m n_jm over all processors j by QR
// least squares. If the system is rank deficient (e.g. every processor has
// an identical material mixture), it falls back to the material-independent
// fit t_j = a + b n_j, solved the same way.
func solvePhase(sum *mesh.PartitionSummary, times []float64, presentList []int) (phaseCoeffs, error) {
	rows := sum.P
	cols := 1 + len(presentList)
	var out phaseCoeffs
	if rows >= cols {
		a := linalg.NewMatrix(rows, cols)
		for pe := 0; pe < rows; pe++ {
			a.Set(pe, 0, 1)
			for ci, m := range presentList {
				a.Set(pe, 1+ci, float64(sum.CellsByMaterial[pe][m]))
			}
		}
		x, err := linalg.LeastSquares(a, times)
		if err == nil {
			out.fixed = x[0]
			for ci, m := range presentList {
				out.perCell[m] = x[1+ci]
			}
			return out, nil
		}
		if err != linalg.ErrSingular {
			return out, err
		}
	}
	// Fallback: material-independent regression on total cells.
	a := linalg.NewMatrix(rows, 2)
	for pe := 0; pe < rows; pe++ {
		a.Set(pe, 0, 1)
		a.Set(pe, 1, float64(sum.TotalCells[pe]))
	}
	x, err := linalg.LeastSquares(a, times)
	if err != nil {
		// Last resort: all processors identical; treat everything as
		// per-cell cost with no constant term.
		n := float64(sum.TotalCells[0])
		if n == 0 {
			return out, fmt.Errorf("core: degenerate calibration campaign")
		}
		for _, m := range presentList {
			out.perCell[m] = times[0] / n
		}
		return out, nil
	}
	out.fixed = x[0]
	for _, m := range presentList {
		out.perCell[m] = x[1]
	}
	return out, nil
}
