package mesh

import (
	"fmt"
	"sort"
)

// PairKey identifies an unordered processor pair with A < B.
type PairKey struct{ A, B int }

// MakePairKey normalizes a processor pair.
func MakePairKey(a, b int) PairKey {
	if a > b {
		a, b = b, a
	}
	return PairKey{A: a, B: b}
}

// PairBoundary describes the shared boundary between two processors: the
// quantities that determine boundary-exchange and ghost-node-update message
// sizes in §4.1 and §4.2 of the paper.
type PairBoundary struct {
	Key PairKey

	// FacesByMaterial counts the shared faces attributed to each material.
	// A face whose two sides have different materials is attributed to the
	// material of its lower-numbered cell (deterministic; material
	// interfaces are a vanishing fraction of any boundary in practice).
	FacesByMaterial [NumMaterials]int

	// FacesByGroup counts shared faces per boundary-exchange group, i.e.
	// with the two aluminum materials combined as the paper prescribes.
	FacesByGroup [NumExchangeGroups]int

	// TotalFaces is the number of shared faces regardless of material.
	TotalFaces int

	// GhostNodes is the number of nodes shared by the two processors.
	GhostNodes int

	// MultiGroupGhosts counts ghost nodes on this boundary that touch faces
	// of more than one exchange group — each adds 12 bytes to the first two
	// messages of the per-material exchange step (§4.1).
	MultiGroupGhosts int

	// MultiGroupGhostsByGroup counts, per exchange group, the multi-group
	// ghost nodes touching that group: the per-material surcharge in the
	// Table 3 message sizes. Each multi-group ghost node is counted once
	// for every group it touches.
	MultiGroupGhostsByGroup [NumExchangeGroups]int

	// OwnedByA and OwnedByB split GhostNodes by owner: every ghost node is
	// "local" to exactly one processor (§4.2). Ownership goes to the lowest
	// processor id incident to the node.
	OwnedByA, OwnedByB int
}

// Owned returns the number of ghost nodes on this boundary owned by pe,
// which must be one of the pair members.
func (b *PairBoundary) Owned(pe int) int {
	switch pe {
	case b.Key.A:
		return b.OwnedByA
	case b.Key.B:
		return b.OwnedByB
	}
	return 0
}

// Remote returns the number of ghost nodes on this boundary owned by the
// other member of the pair.
func (b *PairBoundary) Remote(pe int) int {
	switch pe {
	case b.Key.A:
		return b.OwnedByB
	case b.Key.B:
		return b.OwnedByA
	}
	return 0
}

// PartitionSummary aggregates everything the performance model and the
// cluster simulator need to know about a partitioned deck. Summarize
// populates every field eagerly and nothing mutates a summary afterwards,
// so one cached summary may be read by any number of concurrent engine
// jobs.
type PartitionSummary struct {
	P int // number of processors

	// CellsByMaterial[pe][mat] is the paper's Cells matrix in aggregated
	// form: the number of cells of each material on each processor.
	CellsByMaterial [][NumMaterials]int

	// TotalCells[pe] is the processor's total cell count.
	TotalCells []int

	// Pairs maps each adjacent processor pair to its boundary description.
	Pairs map[PairKey]*PairBoundary

	// NeighborsOf[pe] lists pe's neighboring processors in ascending order.
	NeighborsOf [][]int
}

// Boundary returns the boundary between two processors, or nil if they are
// not adjacent.
func (s *PartitionSummary) Boundary(a, b int) *PairBoundary {
	return s.Pairs[MakePairKey(a, b)]
}

// MaxNeighbors returns the largest neighbor count over all processors.
func (s *PartitionSummary) MaxNeighbors() int {
	m := 0
	for _, n := range s.NeighborsOf {
		if len(n) > m {
			m = len(n)
		}
	}
	return m
}

// EdgeCut returns the number of interior mesh faces whose two cells live on
// different processors (the quantity Metis minimizes).
func (s *PartitionSummary) EdgeCut() int {
	cut := 0
	//krakcheck:ignore maprange integer sum over map values is iteration-order independent
	for _, b := range s.Pairs {
		cut += b.TotalFaces
	}
	return cut
}

// Imbalance returns max/mean cells per processor (1.0 = perfectly balanced).
func (s *PartitionSummary) Imbalance() float64 {
	if s.P == 0 {
		return 0
	}
	var sum, max int
	for _, c := range s.TotalCells {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(s.P) / float64(sum)
}

// Summarize computes the partition summary of a mesh under the given
// cell-to-processor assignment. part must assign every cell a processor in
// [0, p).
func Summarize(m *Mesh, part []int, p int) (*PartitionSummary, error) {
	if len(part) != m.NumCells() {
		return nil, fmt.Errorf("mesh: partition length %d != cell count %d", len(part), m.NumCells())
	}
	if p <= 0 {
		return nil, fmt.Errorf("mesh: invalid processor count %d", p)
	}
	s := &PartitionSummary{
		P:               p,
		CellsByMaterial: make([][NumMaterials]int, p),
		TotalCells:      make([]int, p),
		Pairs:           make(map[PairKey]*PairBoundary),
		NeighborsOf:     make([][]int, p),
	}
	for c, pe := range part {
		if pe < 0 || pe >= p {
			return nil, fmt.Errorf("mesh: cell %d assigned to invalid processor %d", c, pe)
		}
		s.CellsByMaterial[pe][m.CellMaterial[c]]++
		s.TotalCells[pe]++
	}

	// Shared faces per pair, attributed by the lower-numbered cell's material.
	for _, f := range m.Faces {
		if !f.Interior() {
			continue
		}
		pa, pb := part[f.C0], part[f.C1]
		if pa == pb {
			continue
		}
		key := MakePairKey(pa, pb)
		b := s.Pairs[key]
		if b == nil {
			b = &PairBoundary{Key: key}
			s.Pairs[key] = b
		}
		lowCell := f.C0
		if f.C1 < f.C0 {
			lowCell = f.C1
		}
		mat := m.CellMaterial[lowCell]
		b.FacesByMaterial[mat]++
		b.FacesByGroup[mat.Group()]++
		b.TotalFaces++
	}

	// Ghost nodes: nodes incident to cells of more than one processor. For
	// each pair sharing the node, the node is a ghost on that boundary.
	// Ownership goes to the lowest incident processor id. A ghost node is
	// multi-group if the boundary faces it touches span >1 exchange group;
	// we approximate "touches" with the exchange groups of its incident
	// cells on the two processors, which coincides with face groups on
	// conforming quad meshes.
	off, incident := m.nodeIncidence()
	var pesHere []int
	for n := 0; n < m.NumNodes(); n++ {
		cells := incident[off[n]:off[n+1]]
		pesHere = pesHere[:0]
		for _, c := range cells {
			pe := part[c]
			found := false
			for _, q := range pesHere {
				if q == pe {
					found = true
					break
				}
			}
			if !found {
				pesHere = append(pesHere, pe)
			}
		}
		if len(pesHere) < 2 {
			continue
		}
		sort.Ints(pesHere)
		owner := pesHere[0]
		for i := 0; i < len(pesHere); i++ {
			for j := i + 1; j < len(pesHere); j++ {
				key := MakePairKey(pesHere[i], pesHere[j])
				b := s.Pairs[key]
				if b == nil {
					// Corner-adjacent processors share a node but no face;
					// they still exchange ghost-node updates in Krak, so
					// record the pair.
					b = &PairBoundary{Key: key}
					s.Pairs[key] = b
				}
				b.GhostNodes++
				if owner == b.Key.A {
					b.OwnedByA++
				} else if owner == b.Key.B {
					b.OwnedByB++
				} else {
					// A third, lower-numbered processor owns the node; the
					// pair still counts it as a ghost, split to the lower
					// pair member by convention.
					b.OwnedByA++
				}
				// Multi-group detection: collect the exchange groups of the
				// node's incident cells on the two pair members.
				var groups [NumExchangeGroups]bool
				ngroups := 0
				for _, c := range cells {
					pe := part[c]
					if pe != b.Key.A && pe != b.Key.B {
						continue
					}
					g := m.CellMaterial[c].Group()
					if !groups[g] {
						groups[g] = true
						ngroups++
					}
				}
				if ngroups > 1 {
					b.MultiGroupGhosts++
					for g := 0; g < NumExchangeGroups; g++ {
						if groups[g] {
							b.MultiGroupGhostsByGroup[g]++
						}
					}
				}
			}
		}
	}

	// Neighbor lists, built in sorted pair order so the appends (and any
	// future reader of the loop) are deterministic, not just the final
	// sorted slices.
	keys := make([]PairKey, 0, len(s.Pairs))
	for key := range s.Pairs {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].A != keys[j].A {
			return keys[i].A < keys[j].A
		}
		return keys[i].B < keys[j].B
	})
	for _, key := range keys {
		s.NeighborsOf[key.A] = append(s.NeighborsOf[key.A], key.B)
		s.NeighborsOf[key.B] = append(s.NeighborsOf[key.B], key.A)
	}
	for pe := range s.NeighborsOf {
		sort.Ints(s.NeighborsOf[pe])
	}
	return s, nil
}
