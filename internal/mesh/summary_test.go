package mesh

import (
	"testing"
	"testing/quick"
)

// halfSplit partitions a w×h structured mesh into left/right halves.
func halfSplit(m *Mesh) []int {
	part := make([]int, m.NumCells())
	for c := range part {
		cx := c % m.W
		if cx >= m.W/2 {
			part[c] = 1
		}
	}
	return part
}

func TestSummarizeTwoWaySplit(t *testing.T) {
	d, err := BuildUniformDeck(8, 4, Foam)
	if err != nil {
		t.Fatal(err)
	}
	m := d.Mesh
	s, err := Summarize(m, halfSplit(m), 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalCells[0] != 16 || s.TotalCells[1] != 16 {
		t.Fatalf("cells = %v", s.TotalCells)
	}
	b := s.Boundary(0, 1)
	if b == nil {
		t.Fatal("no boundary between halves")
	}
	// Vertical split of an 8x4 grid: 4 shared faces, 5 shared nodes.
	if b.TotalFaces != 4 {
		t.Fatalf("shared faces = %d, want 4", b.TotalFaces)
	}
	if b.GhostNodes != 5 {
		t.Fatalf("ghost nodes = %d, want 5", b.GhostNodes)
	}
	// All ghost nodes owned by the lower-numbered processor.
	if b.OwnedByA != 5 || b.OwnedByB != 0 {
		t.Fatalf("ownership = %d/%d", b.OwnedByA, b.OwnedByB)
	}
	if b.Owned(0) != 5 || b.Remote(0) != 0 || b.Owned(1) != 0 || b.Remote(1) != 5 {
		t.Fatal("Owned/Remote accessors inconsistent")
	}
	if b.Owned(7) != 0 || b.Remote(7) != 0 {
		t.Fatal("non-member pe should own nothing")
	}
	// Single-material mesh: no multi-group ghosts, all faces in foam group.
	if b.MultiGroupGhosts != 0 {
		t.Fatalf("multi-group ghosts = %d, want 0", b.MultiGroupGhosts)
	}
	if b.FacesByGroup[GroupFoam] != 4 || b.FacesByMaterial[Foam] != 4 {
		t.Fatal("face material attribution wrong")
	}
	if s.EdgeCut() != 4 {
		t.Fatalf("edge cut = %d", s.EdgeCut())
	}
	if s.Imbalance() != 1.0 {
		t.Fatalf("imbalance = %v", s.Imbalance())
	}
	if s.MaxNeighbors() != 1 {
		t.Fatalf("max neighbors = %d", s.MaxNeighbors())
	}
	if len(s.NeighborsOf[0]) != 1 || s.NeighborsOf[0][0] != 1 {
		t.Fatalf("neighbors = %v", s.NeighborsOf)
	}
	// Node incidence is built per call: a shared, cached mesh keeps no
	// per-node table for summaries.
	if m.nodeCells != nil {
		t.Fatal("Summarize left the node incidence table on the mesh")
	}
}

func TestSummarizeMaterialBoundarySplit(t *testing.T) {
	// Two-material deck split exactly at the material interface, then split
	// horizontally instead so the boundary crosses both materials.
	d, err := BuildTwoMaterialDeck(8, 4, Foam)
	if err != nil {
		t.Fatal(err)
	}
	m := d.Mesh
	// Horizontal split: bottom half pe 0, top half pe 1; boundary runs across
	// the domain crossing the HE|Foam interface.
	part := make([]int, m.NumCells())
	for c := range part {
		if c/m.W >= m.H/2 {
			part[c] = 1
		}
	}
	s, err := Summarize(m, part, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := s.Boundary(0, 1)
	if b.TotalFaces != 8 {
		t.Fatalf("shared faces = %d, want 8", b.TotalFaces)
	}
	if b.FacesByMaterial[HEGas] != 4 || b.FacesByMaterial[Foam] != 4 {
		t.Fatalf("faces by material = %v", b.FacesByMaterial)
	}
	if b.GhostNodes != 9 {
		t.Fatalf("ghost nodes = %d, want 9", b.GhostNodes)
	}
	// Exactly one ghost node (at the material interface) touches two groups.
	if b.MultiGroupGhosts != 1 {
		t.Fatalf("multi-group ghosts = %d, want 1", b.MultiGroupGhosts)
	}
}

func TestSummarizeCornerAdjacency(t *testing.T) {
	// 2x2 cells on 4 PEs: diagonal PEs share only the center node.
	d, err := BuildUniformDeck(2, 2, HEGas)
	if err != nil {
		t.Fatal(err)
	}
	part := []int{0, 1, 2, 3}
	s, err := Summarize(d.Mesh, part, 4)
	if err != nil {
		t.Fatal(err)
	}
	diag := s.Boundary(0, 3)
	if diag == nil {
		t.Fatal("corner-adjacent pair not recorded")
	}
	if diag.TotalFaces != 0 {
		t.Fatalf("corner pair faces = %d, want 0", diag.TotalFaces)
	}
	if diag.GhostNodes != 1 {
		t.Fatalf("corner pair ghosts = %d, want 1", diag.GhostNodes)
	}
	// The center node is owned by PE 0, the lowest incident id; for the
	// (1,2) pair neither member owns it, so it is credited to the lower
	// pair member by convention.
	offDiag := s.Boundary(1, 2)
	if offDiag.GhostNodes != 1 || offDiag.OwnedByA != 1 {
		t.Fatalf("off-diagonal pair ghosts = %+v", offDiag)
	}
	// Every PE neighbors every other.
	if s.MaxNeighbors() != 3 {
		t.Fatalf("max neighbors = %d, want 3", s.MaxNeighbors())
	}
}

func TestSummarizeErrors(t *testing.T) {
	d, _ := BuildUniformDeck(2, 2, HEGas)
	if _, err := Summarize(d.Mesh, []int{0, 0}, 1); err == nil {
		t.Fatal("short partition accepted")
	}
	if _, err := Summarize(d.Mesh, []int{0, 0, 0, 5}, 2); err == nil {
		t.Fatal("out-of-range pe accepted")
	}
	if _, err := Summarize(d.Mesh, []int{0, 0, 0, 0}, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestMakePairKey(t *testing.T) {
	if MakePairKey(3, 1) != (PairKey{A: 1, B: 3}) {
		t.Fatal("pair not normalized")
	}
	if MakePairKey(1, 3) != MakePairKey(3, 1) {
		t.Fatal("pair keys differ by order")
	}
}

// Property: per-PE cell counts always sum to the mesh total; ghost-node
// ownership halves sum to the pair total; edge cut is symmetric data.
func TestSummarizeConservationProperty(t *testing.T) {
	d, err := BuildLayeredDeck(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := d.Mesh
	f := func(seed uint32, pRaw uint8) bool {
		p := int(pRaw)%6 + 2
		part := make([]int, m.NumCells())
		state := uint64(seed)
		for c := range part {
			state = state*6364136223846793005 + 1442695040888963407
			part[c] = int(state>>33) % p
		}
		s, err := Summarize(m, part, p)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range s.TotalCells {
			total += c
		}
		if total != m.NumCells() {
			return false
		}
		for _, b := range s.Pairs {
			if b.OwnedByA+b.OwnedByB != b.GhostNodes {
				return false
			}
			sumMat := 0
			for _, n := range b.FacesByMaterial {
				sumMat += n
			}
			sumGrp := 0
			for _, n := range b.FacesByGroup {
				sumGrp += n
			}
			if sumMat != b.TotalFaces || sumGrp != b.TotalFaces {
				return false
			}
			if b.MultiGroupGhosts > b.GhostNodes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
