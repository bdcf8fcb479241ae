// Package partition provides the mesh-partitioning substrate of the Krak
// reproduction. The paper partitions its spatial grids with METIS 4.0,
// "balancing cell counts on each processor while minimizing edge cuts", and
// stresses that the resulting irregular partitions are what make Krak hard
// to model. This package implements a from-scratch multilevel k-way
// partitioner in the METIS style (heavy-edge-matching coarsening, greedy
// graph-growing initial bisection, Fiduccia–Mattheyses boundary refinement)
// along with simpler baselines (recursive coordinate bisection, strips,
// random) used by the ablation benches.
package partition

import (
	"fmt"

	"krak/internal/mesh"
)

// Graph is an undirected graph in compressed sparse row form, following the
// METIS conventions: vertex v's neighbors are Adjncy[Xadj[v]:Xadj[v+1]] with
// matching edge weights in AdjWgt. Every edge appears twice (once per
// endpoint).
type Graph struct {
	Xadj   []int32
	Adjncy []int32
	AdjWgt []int32
	VWgt   []int32

	// Optional vertex coordinates (cell centroids) used by the geometric
	// partitioners.
	CoordX, CoordY []float64
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.Xadj) - 1 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.Xadj[v+1] - g.Xadj[v]) }

// TotalVWgt returns the sum of all vertex weights.
func (g *Graph) TotalVWgt() int64 {
	var s int64
	for _, w := range g.VWgt {
		s += int64(w)
	}
	return s
}

// Validate checks CSR invariants: monotone Xadj, in-range neighbors, no
// self-loops, symmetric adjacency with matching weights.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if n < 0 {
		return fmt.Errorf("partition: empty Xadj")
	}
	if len(g.VWgt) != n {
		return fmt.Errorf("partition: VWgt length %d != vertex count %d", len(g.VWgt), n)
	}
	if g.Xadj[0] != 0 || int(g.Xadj[n]) != len(g.Adjncy) {
		return fmt.Errorf("partition: bad Xadj bounds")
	}
	if len(g.AdjWgt) != len(g.Adjncy) {
		return fmt.Errorf("partition: AdjWgt length mismatch")
	}
	type edge struct{ u, v int32 }
	weights := make(map[edge]int32, len(g.Adjncy))
	for v := 0; v < n; v++ {
		if g.Xadj[v] > g.Xadj[v+1] {
			return fmt.Errorf("partition: Xadj not monotone at %d", v)
		}
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			u := g.Adjncy[i]
			if u < 0 || int(u) >= n {
				return fmt.Errorf("partition: vertex %d has out-of-range neighbor %d", v, u)
			}
			if int(u) == v {
				return fmt.Errorf("partition: self-loop at %d", v)
			}
			weights[edge{int32(v), u}] = g.AdjWgt[i]
		}
	}
	// Check symmetry by walking the adjacency arrays in vertex order, not
	// by ranging over the map: the first asymmetric edge reported must be
	// the same on every run so error messages are reproducible.
	for v := 0; v < n; v++ {
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			u := g.Adjncy[i]
			if weights[edge{u, int32(v)}] != g.AdjWgt[i] {
				return fmt.Errorf("partition: asymmetric edge (%d,%d)", v, u)
			}
		}
	}
	return nil
}

// FromMesh builds the dual graph of a mesh: one vertex per cell (unit
// weight), one edge per interior face (unit weight), with cell centroids as
// vertex coordinates.
func FromMesh(m *mesh.Mesh) *Graph {
	n := m.NumCells()
	deg := make([]int32, n)
	for _, f := range m.Faces {
		if f.Interior() {
			deg[f.C0]++
			deg[f.C1]++
		}
	}
	g := &Graph{
		Xadj:   make([]int32, n+1),
		VWgt:   make([]int32, n),
		CoordX: make([]float64, n),
		CoordY: make([]float64, n),
	}
	for v := 0; v < n; v++ {
		g.Xadj[v+1] = g.Xadj[v] + deg[v]
		g.VWgt[v] = 1
		g.CoordX[v], g.CoordY[v] = m.CellCenter(v)
	}
	g.Adjncy = make([]int32, g.Xadj[n])
	g.AdjWgt = make([]int32, g.Xadj[n])
	fill := make([]int32, n)
	for _, f := range m.Faces {
		if !f.Interior() {
			continue
		}
		a, b := f.C0, f.C1
		g.Adjncy[g.Xadj[a]+fill[a]] = b
		g.AdjWgt[g.Xadj[a]+fill[a]] = 1
		fill[a]++
		g.Adjncy[g.Xadj[b]+fill[b]] = a
		g.AdjWgt[g.Xadj[b]+fill[b]] = 1
		fill[b]++
	}
	return g
}

// Cut returns the total weight of edges crossing between parts.
func Cut(g *Graph, part []int) int64 {
	var cut int64
	for v := 0; v < g.NumVertices(); v++ {
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			u := g.Adjncy[i]
			if part[v] != part[u] {
				cut += int64(g.AdjWgt[i])
			}
		}
	}
	return cut / 2 // every crossing edge counted twice
}

// PartWeights returns the summed vertex weight of each part.
func PartWeights(g *Graph, part []int, k int) []int64 {
	w := make([]int64, k)
	for v := 0; v < g.NumVertices(); v++ {
		w[part[v]] += int64(g.VWgt[v])
	}
	return w
}

// Imbalance returns max(partWeight)*k/total, i.e. 1.0 when perfectly
// balanced.
func Imbalance(g *Graph, part []int, k int) float64 {
	w := PartWeights(g, part, k)
	total := g.TotalVWgt()
	if total == 0 {
		return 0
	}
	var max int64
	for _, x := range w {
		if x > max {
			max = x
		}
	}
	return float64(max) * float64(k) / float64(total)
}

// Partitioner divides a graph into k balanced parts.
// Implementations must be safe for concurrent use: Partition derives any
// randomness per call from the configured seed and keeps no mutable state
// on the receiver, so one Partitioner (and one *Graph, which Partition
// never mutates) can serve parallel engine jobs.
type Partitioner interface {
	// Name identifies the algorithm for reports.
	Name() string
	// Partition returns a part id in [0,k) for every vertex.
	Partition(g *Graph, k int) ([]int, error)
}

// validateArgs provides shared argument checking for the partitioners.
// Vertex weights must be non-negative: every balance target assumes a
// non-negative total, and fmRefine's admissible-move window is exact
// only then (see moveWindow).
func validateArgs(g *Graph, k int) error {
	if g == nil || g.NumVertices() == 0 {
		return fmt.Errorf("partition: empty graph")
	}
	if k <= 0 {
		return fmt.Errorf("partition: invalid part count %d", k)
	}
	if k > g.NumVertices() {
		return fmt.Errorf("partition: %d parts exceed %d vertices", k, g.NumVertices())
	}
	for v, w := range g.VWgt {
		if w < 0 {
			return fmt.Errorf("partition: vertex %d has negative weight %d", v, w)
		}
	}
	return nil
}
