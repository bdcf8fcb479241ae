package partition

import (
	"fmt"
	bits64 "math/bits"

	"krak/internal/stats"
)

// Multilevel is the METIS-style multilevel k-way partitioner: the graph is
// coarsened once by repeated heavy-edge matching, the coarsest graph is
// partitioned by recursive bisection (greedy growing + Fiduccia–Mattheyses
// refinement with rollback), and the partition is projected back through the
// levels with greedy k-way boundary refinement at each step.
//
// The hot path is allocation-frugal: every Partition call owns one scratch
// arena (see mlScratch) whose buffers are threaded through coarsening,
// bisection, and refinement, so per-level and per-pass work reuses memory
// instead of reallocating it. The arena is per-call state, never stored on
// the receiver, preserving the Partitioner concurrency contract.
type Multilevel struct {
	// Seed drives every randomized decision; equal seeds give identical
	// partitions.
	Seed uint64
	// CoarsenTo stops coarsening once the graph has at most
	// max(CoarsenTo, 12*k) vertices (default 64).
	CoarsenTo int
	// Tries is the number of initial bisections grown per coarsest graph,
	// keeping the best (default 4).
	Tries int
	// MaxImbalance bounds the tolerated imbalance as a fraction, e.g. 0.05
	// allows parts 5% above average (default 0.05). Partition rejects
	// values above 1 and NaN.
	MaxImbalance float64
	// RefinePasses bounds the k-way refinement passes per level (default 4).
	RefinePasses int
}

// NewMultilevel returns a Multilevel partitioner with default tuning.
func NewMultilevel(seed uint64) *Multilevel {
	return &Multilevel{Seed: seed, CoarsenTo: 64, Tries: 4, MaxImbalance: 0.05, RefinePasses: 4}
}

// Name implements Partitioner.
func (ml *Multilevel) Name() string { return "multilevel-kway" }

func (ml *Multilevel) coarsenTo() int {
	if ml.CoarsenTo <= 1 {
		return 64
	}
	return ml.CoarsenTo
}

func (ml *Multilevel) tries() int {
	if ml.Tries <= 0 {
		return 4
	}
	return ml.Tries
}

func (ml *Multilevel) maxImbalance() float64 {
	if ml.MaxImbalance <= 0 {
		return 0.05
	}
	return ml.MaxImbalance
}

func (ml *Multilevel) refinePasses() int {
	if ml.RefinePasses <= 0 {
		return 4
	}
	return ml.RefinePasses
}

// level captures one coarsening step.
type level struct {
	g    *Graph
	cmap []int32 // fine vertex -> coarse vertex
}

// mlScratch is the reusable working memory of one Partition call. Buffers
// are sized on demand (grow* helpers) and shared across coarsening levels,
// bisection tries, and refinement passes. Ownership rules:
//
//   - Buffers here never escape the call: anything retained across levels
//     (cmap vectors, coarse CSR arrays, the final part vector) is allocated
//     exactly once at its final size instead.
//   - fm/kway buffers (gain, nExt, locked, moves, w, conn, order) are
//     reset by their users; acc and newID rely on their users restoring
//     zeros / -1 before returning, so the next user can skip the clear.
//   - sideA/sideB ping-pong through bisection projection; the returned
//     side vector is only valid until the next bisect call, which is fine
//     because recurse consumes it immediately.
//
// krakcheck:arena
type mlScratch struct {
	match    []int32
	acc      []int32 // zeroed between uses by coarsenOnce's touched-list
	touched  []int32
	mstart   []int32
	mlist    []int32
	adjTmp   []int32
	wgtTmp   []int32
	order    []int32
	newID    []int32 // -1 outside induce; restored before induce returns
	seen     []bool
	queue    []int32
	sideA    []int8
	sideB    []int8
	bestSde  []int8
	gain     []int64
	nExt     []int32
	cand     []uint64
	locked   []bool
	moves    []int32
	w        []int64
	conn     []int64
	touchedP []int
}

// grow returns buf resized to n, reallocating (zeroed, contents dropped)
// only when capacity is short — the arena's one sizing policy.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Partition implements Partitioner.
func (ml *Multilevel) Partition(g *Graph, k int) ([]int, error) {
	if err := validateArgs(g, k); err != nil {
		return nil, err
	}
	if !(ml.MaxImbalance <= 1) {
		return nil, fmt.Errorf("partition: max imbalance %g outside [0, 1]", ml.MaxImbalance)
	}
	rng := stats.Derive(ml.Seed, 0x9a17, uint64(k))
	scr := &mlScratch{}

	// Coarsening phase: contract heavy-edge matchings until the graph is
	// small relative to k.
	stopAt := ml.coarsenTo()
	if t := 40 * k; t > stopAt {
		stopAt = t
	}
	var levels []level
	cur := g
	for cur.NumVertices() > stopAt {
		cmap, coarse := coarsenOnce(cur, rng, scr)
		if coarse.NumVertices() >= cur.NumVertices()*9/10 {
			break // matching stalled; stop coarsening
		}
		levels = append(levels, level{g: cur, cmap: cmap})
		cur = coarse
	}

	// Initial k-way partition of the coarsest graph by recursive bisection.
	// The per-bisection tolerance shrinks with recursion depth so the
	// compounded imbalance stays within MaxImbalance overall.
	depth := 1
	for 1<<depth < k {
		depth++
	}
	bisectTol := ml.maxImbalance() / float64(depth)
	if bisectTol < 0.002 {
		bisectTol = 0.002
	}
	part := make([]int, cur.NumVertices())
	vertices := make([]int32, cur.NumVertices())
	for i := range vertices {
		vertices[i] = int32(i)
	}
	// newID doubles as induce's dense remap table over the coarsest graph;
	// induce's contract is that it holds -1 whenever induce is not running.
	scr.newID = grow(scr.newID, cur.NumVertices())
	for i := range scr.newID {
		scr.newID[i] = -1
	}
	ml.recurse(cur, vertices, k, 0, part, bisectTol, rng, scr)
	kwayRefine(cur, part, k, ml.maxImbalance(), ml.refinePasses(), rng, scr)

	// Uncoarsening with refinement at every level.
	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		fine := make([]int, lv.g.NumVertices())
		for v := range fine {
			fine[v] = part[lv.cmap[v]]
		}
		kwayRefine(lv.g, fine, k, ml.maxImbalance(), ml.refinePasses(), rng, scr)
		part = fine
	}
	return part, nil
}

// recurse bisects the subgraph induced by vertices into kL and kR shares,
// assigning final part ids [base, base+k) into part. It is only invoked on
// coarse graphs, so the induced-subgraph copies are cheap.
func (ml *Multilevel) recurse(g *Graph, vertices []int32, k, base int, part []int, tol float64, rng *stats.SplitMix64, scr *mlScratch) {
	if k == 1 {
		for _, v := range vertices {
			part[v] = base
		}
		return
	}
	kL := k / 2
	kR := k - kL
	sub := induce(g, vertices, scr)
	frac := float64(kL) / float64(k)
	side := ml.bisect(sub, frac, tol, rng, scr)
	var left, right []int32
	for i, v := range vertices {
		if side[i] == 0 {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	// Degenerate splits can strand a side with fewer vertices than parts;
	// rebalance by moving arbitrary vertices (never happens on meshes, but
	// keeps the invariant for adversarial graphs).
	for len(left) < kL {
		left = append(left, right[len(right)-1])
		right = right[:len(right)-1]
	}
	for len(right) < kR {
		right = append(right, left[len(left)-1])
		left = left[:len(left)-1]
	}
	ml.recurse(g, left, kL, base, part, tol, rng, scr)
	ml.recurse(g, right, kR, base+kL, part, tol, rng, scr)
}

// induce builds the subgraph over the given vertices (in their given order),
// remapping ids through the scratch arena's dense newID table instead of a
// per-call map. newID must hold -1 on entry for every vertex of g; induce
// restores that before returning.
func induce(g *Graph, vertices []int32, scr *mlScratch) *Graph {
	newID := scr.newID
	for i, v := range vertices {
		newID[v] = int32(i)
	}
	// First pass: count surviving edges so the CSR arrays allocate exactly
	// once at their final size (they outlive the scratch reuse window).
	edges := 0
	for _, v := range vertices {
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			if newID[g.Adjncy[e]] >= 0 {
				edges++
			}
		}
	}
	sub := &Graph{
		Xadj:   make([]int32, len(vertices)+1),
		Adjncy: make([]int32, edges),
		AdjWgt: make([]int32, edges),
		VWgt:   make([]int32, len(vertices)),
	}
	fill := int32(0)
	for i, v := range vertices {
		sub.VWgt[i] = g.VWgt[v]
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			if nu := newID[g.Adjncy[e]]; nu >= 0 {
				sub.Adjncy[fill] = nu
				sub.AdjWgt[fill] = g.AdjWgt[e]
				fill++
			}
		}
		sub.Xadj[i+1] = fill
	}
	for _, v := range vertices {
		newID[v] = -1
	}
	return sub
}

// bisect performs a multilevel bisection of g, targeting the given weight
// fraction in side 0. Returns a 0/1 side per vertex, valid until the next
// bisect call on the same scratch.
func (ml *Multilevel) bisect(g *Graph, frac, tol float64, rng *stats.SplitMix64, scr *mlScratch) []int8 {
	var levels []level
	cur := g
	for cur.NumVertices() > ml.coarsenTo() {
		cmap, coarse := coarsenOnce(cur, rng, scr)
		if coarse.NumVertices() >= cur.NumVertices()*9/10 {
			break
		}
		levels = append(levels, level{g: cur, cmap: cmap})
		cur = coarse
	}
	target0 := int64(frac * float64(cur.TotalVWgt()))
	n := cur.NumVertices()
	scr.sideA = grow(scr.sideA, g.NumVertices())
	scr.bestSde = grow(scr.bestSde, g.NumVertices())
	side := scr.sideA[:n]
	best := scr.bestSde[:n]
	var bestCut int64 = 1<<62 - 1
	haveBest := false
	for t := 0; t < ml.tries(); t++ {
		growBisection(cur, side, target0, rng, scr)
		fmRefine(cur, side, target0, tol, 4, scr)
		if c := cutSides(cur, side); c < bestCut {
			bestCut = c
			copy(best, side)
			haveBest = true
		}
	}
	if haveBest {
		copy(side, best)
	}
	// Project through the levels, ping-ponging between the two side
	// buffers: the fine side is written while the coarse side is read.
	scr.sideB = grow(scr.sideB, g.NumVertices())
	other := scr.sideB
	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		fine := other[:lv.g.NumVertices()]
		for v := range fine {
			fine[v] = side[lv.cmap[v]]
		}
		t0 := int64(frac * float64(lv.g.TotalVWgt()))
		fmRefine(lv.g, fine, t0, tol, 4, scr)
		side, other = fine, side[:cap(side)]
	}
	//krakcheck:ignore arenaescape deliberate borrow: the side vector is valid until the next bisect call and recurse consumes it before calling bisect again
	return side
}

// coarsenOnce computes a heavy-edge matching and contracts it. Only the
// returned cmap and coarse CSR arrays are freshly allocated (they are
// retained across the level stack); all working memory comes from scr.
func coarsenOnce(g *Graph, rng *stats.SplitMix64, scr *mlScratch) (cmap []int32, coarse *Graph) {
	n := g.NumVertices()
	scr.order = grow(scr.order, n)
	order := scr.order
	randomOrderInto(order, rng)
	scr.match = grow(scr.match, n)
	match := scr.match
	for i := range match {
		match[i] = -1
	}
	nCoarse := int32(0)
	cmap = make([]int32, n)
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		// Pick the unmatched neighbor with the heaviest connecting edge.
		bestU := int32(-1)
		var bestW int32 = -1
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			u := g.Adjncy[e]
			if match[u] == -1 && g.AdjWgt[e] > bestW {
				bestW = g.AdjWgt[e]
				bestU = u
			}
		}
		if bestU >= 0 {
			match[v] = bestU
			match[bestU] = v
			cmap[v] = nCoarse
			cmap[bestU] = nCoarse
		} else {
			match[v] = v
			cmap[v] = nCoarse
		}
		nCoarse++
	}
	// Contract. Member lists come from a counting sort into one flat
	// scratch array (ascending fine id within each coarse vertex, matching
	// the append order the map-free aggregation below relies on), and edge
	// accumulation uses a dense scratch array indexed by coarse vertex with
	// a touched-list, avoiding per-vertex maps.
	coarse = &Graph{
		Xadj: make([]int32, nCoarse+1),
		VWgt: make([]int32, nCoarse),
	}
	for v := 0; v < n; v++ {
		coarse.VWgt[cmap[v]] += g.VWgt[v]
	}
	scr.mstart = grow(scr.mstart, int(nCoarse)+1)
	mstart := scr.mstart
	for i := range mstart {
		mstart[i] = 0
	}
	for v := 0; v < n; v++ {
		mstart[cmap[v]+1]++
	}
	for cv := int32(0); cv < nCoarse; cv++ {
		mstart[cv+1] += mstart[cv]
	}
	scr.mlist = grow(scr.mlist, n)
	mlist := scr.mlist
	{
		// Fill positions advance through each coarse vertex's span; reuse
		// match as the cursor array (its contents are dead past this point).
		fill := match
		copy(fill, mstart[:nCoarse])
		for v := 0; v < n; v++ {
			cv := cmap[v]
			mlist[fill[cv]] = int32(v)
			fill[cv]++
		}
	}
	scr.acc = grow(scr.acc, int(nCoarse))
	acc := scr.acc
	for i := range acc {
		acc[i] = 0
	}
	scr.touched = grow(scr.touched, 0)
	touched := scr.touched[:0]
	// Aggregate into arena buffers sized by the upper bound (contraction
	// never increases edge endpoints), then copy to exact-size arrays.
	adjncy := grow(scr.adjTmp, len(g.Adjncy))[:0]
	adjwgt := grow(scr.wgtTmp, len(g.Adjncy))[:0]
	for cv := int32(0); cv < nCoarse; cv++ {
		touched = touched[:0]
		for _, v := range mlist[mstart[cv]:mstart[cv+1]] {
			for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
				cu := cmap[g.Adjncy[e]]
				if cu == cv {
					continue
				}
				if acc[cu] == 0 {
					touched = append(touched, cu)
				}
				acc[cu] += g.AdjWgt[e]
			}
		}
		for _, cu := range touched {
			adjncy = append(adjncy, cu)
			adjwgt = append(adjwgt, acc[cu])
			acc[cu] = 0
		}
		coarse.Xadj[cv+1] = int32(len(adjncy))
	}
	scr.touched = touched
	scr.adjTmp = adjncy[:0]
	scr.wgtTmp = adjwgt[:0]
	// Copy to exact-size arrays: the coarse graph is retained for the
	// whole uncoarsening walk, so it must not alias the reused scratch.
	coarse.Adjncy = make([]int32, len(adjncy))
	copy(coarse.Adjncy, adjncy)
	coarse.AdjWgt = make([]int32, len(adjwgt))
	copy(coarse.AdjWgt, adjwgt)
	return cmap, coarse
}

// randomOrder returns a fresh shuffled permutation of [0, n). The hot paths
// use randomOrderInto with an arena buffer instead; this allocating form
// remains for the baseline partitioners.
func randomOrder(n int, rng *stats.SplitMix64) []int32 {
	order := make([]int32, n)
	randomOrderInto(order, rng)
	return order
}

// randomOrderInto fills order with the identity permutation of its length
// and Fisher–Yates shuffles it, consuming exactly len(order)-1 rng draws
// (the same stream the allocating randomOrder consumed).
func randomOrderInto(order []int32, rng *stats.SplitMix64) {
	n := len(order)
	for i := range order {
		order[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(rng.Next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
}

// growBisection grows side 0 by BFS from a random seed until it holds
// roughly target0 weight, writing into the caller's side buffer.
func growBisection(g *Graph, side []int8, target0 int64, rng *stats.SplitMix64, scr *mlScratch) {
	n := g.NumVertices()
	for i := range side {
		side[i] = 1
	}
	start := int32(rng.Next() % uint64(n))
	var w0 int64
	scr.queue = grow(scr.queue, 0)
	queue := append(scr.queue[:0], start)
	scr.seen = grow(scr.seen, n)
	seen := scr.seen
	for i := range seen {
		seen[i] = false
	}
	seen[start] = true
	head := 0
	for head < len(queue) && w0 < target0 {
		v := queue[head]
		head++
		side[v] = 0
		w0 += int64(g.VWgt[v])
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			u := g.Adjncy[e]
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	scr.queue = queue[:0]
	// Disconnected leftovers: if the BFS exhausted its component before
	// reaching the target, keep absorbing unseen vertices.
	if w0 < target0 {
		for v := int32(0); v < int32(n) && w0 < target0; v++ {
			if !seen[v] {
				seen[v] = true
				side[v] = 0
				w0 += int64(g.VWgt[v])
			}
		}
	}
}

// cutSides returns the cut of a two-way side assignment.
func cutSides(g *Graph, side []int8) int64 {
	var cut int64
	for v := 0; v < g.NumVertices(); v++ {
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			if side[v] != side[g.Adjncy[e]] {
				cut += int64(g.AdjWgt[e])
			}
		}
	}
	return cut / 2
}

// fmRefine runs Fiduccia–Mattheyses passes with rollback on a bisection of a
// small (coarse) graph: each pass repeatedly moves the highest-gain movable
// boundary vertex, then keeps the best prefix of moves. Balance moves are
// admitted when they keep side 0 within tol of target0, or strictly improve
// the distance to target0 (so an out-of-tolerance start can recover).
//
// Gains and boundary membership are maintained incrementally: flipping a
// vertex negates its own gain and adjusts each neighbor's cached gain and
// external-edge count by the flipped edge, so selecting the next move is a
// flat scan over cached values instead of re-walking the adjacency of every
// candidate. The balance test is a weight window computed once per step
// (moveWindow) and checked only for a candidate whose gain would win. The
// scan order (ascending vertex id, strictly-greater gain wins) exactly
// matches the re-scanning implementation, so move sequences — and
// therefore partitions — are byte-identical at a fixed seed.
func fmRefine(g *Graph, side []int8, target0 int64, tol float64, maxPasses int, scr *mlScratch) {
	n := g.NumVertices()
	lo0 := int64(float64(target0) * (1 - tol))
	hi0 := int64(float64(target0) * (1 + tol))

	var w0 int64
	for v := 0; v < n; v++ {
		if side[v] == 0 {
			w0 += int64(g.VWgt[v])
		}
	}

	// Cached per-vertex state: gain = external minus internal edge weight,
	// nExt = number of incident edges crossing the cut (0 means interior).
	scr.gain = grow(scr.gain, n)
	scr.nExt = grow(scr.nExt, n)
	gain := scr.gain
	nExt := scr.nExt
	for v := 0; v < n; v++ {
		var ext, inter int64
		cnt := int32(0)
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			if side[g.Adjncy[e]] != side[v] {
				ext += int64(g.AdjWgt[e])
				cnt++
			} else {
				inter += int64(g.AdjWgt[e])
			}
		}
		gain[v] = ext - inter
		nExt[v] = cnt
	}

	// cand is a bitset of movable candidates — vertices that are on the
	// boundary (nExt > 0) and not locked this pass. Selection scans its set
	// bits in ascending index order, which reproduces exactly the ascending
	// full-vertex scan of the pre-bitset implementation (skipped vertices
	// fail the same nExt/locked tests there).
	words := (n + 63) / 64
	scr.cand = grow(scr.cand, words)
	cand := scr.cand
	scr.locked = grow(scr.locked, n)
	locked := scr.locked

	// flip moves v to the other side, updating w0 and the cached gains,
	// crossing counts, and candidacy bits of v and its neighbors. Used for
	// moves and rollback alike, so the caches stay exact across passes.
	flip := func(v int) {
		if side[v] == 0 {
			side[v] = 1
			w0 -= int64(g.VWgt[v])
		} else {
			side[v] = 0
			w0 += int64(g.VWgt[v])
		}
		gain[v] = -gain[v]
		deg := g.Xadj[v+1] - g.Xadj[v]
		nExt[v] = deg - nExt[v]
		if nExt[v] > 0 && !locked[v] {
			cand[v>>6] |= 1 << (uint(v) & 63)
		} else {
			cand[v>>6] &^= 1 << (uint(v) & 63)
		}
		sv := side[v]
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			u := g.Adjncy[e]
			w2 := 2 * int64(g.AdjWgt[e])
			if side[u] == sv {
				// Edge became internal for u.
				gain[u] -= w2
				nExt[u]--
			} else {
				// Edge became external for u.
				gain[u] += w2
				nExt[u]++
			}
			if nExt[u] > 0 && !locked[u] {
				cand[u>>6] |= 1 << (uint(u) & 63)
			} else {
				cand[u>>6] &^= 1 << (uint(u) & 63)
			}
		}
	}

	scr.moves = grow(scr.moves, 0)

	for pass := 0; pass < maxPasses; pass++ {
		for i := range locked {
			locked[i] = false
		}
		for i := range cand {
			cand[i] = 0
		}
		for v := 0; v < n; v++ {
			if nExt[v] > 0 {
				cand[v>>6] |= 1 << (uint(v) & 63)
			}
		}
		moves := scr.moves[:0]
		var cumGain, bestGain int64
		bestPrefix := 0
		for step := 0; step < n; step++ {
			bestV := -1
			var bestMoveGain int64 = -1 << 62
			wLo, wHi := moveWindow(w0, target0, lo0, hi0)
			for wi := 0; wi < words; wi++ {
				bits := cand[wi]
				for bits != 0 {
					v := wi<<6 + bits64.TrailingZeros64(bits)
					bits &= bits - 1
					if gv := gain[v]; gv > bestMoveGain {
						s, wv := side[v], int64(g.VWgt[v])
						if wv >= wLo[s] && wv <= wHi[s] {
							bestMoveGain = gv
							bestV = v
						}
					}
				}
			}
			if bestV < 0 {
				break
			}
			flip(bestV)
			locked[bestV] = true
			cand[bestV>>6] &^= 1 << (uint(bestV) & 63)
			cumGain += bestMoveGain
			moves = append(moves, int32(bestV))
			if cumGain > bestGain {
				bestGain = cumGain
				bestPrefix = len(moves)
			}
			if cumGain < bestGain-64 {
				break // gains have gone clearly negative; stop the pass
			}
		}
		// Roll back past the best prefix.
		for i := len(moves) - 1; i >= bestPrefix; i-- {
			flip(int(moves[i]))
		}
		scr.moves = moves[:0]
		if bestGain <= 0 {
			return
		}
	}
}

// moveWindow returns, for each side s, the closed interval
// [lo[s], hi[s]] of vertex weights whose move off side s is admissible
// while side 0 weighs w0: the move leaves side 0 within [lo0, hi0], or
// strictly closer to target0 than w0 is. Each condition is an interval
// of the new side-0 weight around target0, so with lo0 <= target0 <= hi0
// (which validateArgs and Partition's MaxImbalance check guarantee) their
// union is the single interval [aLo, aHi], and the weight test is exact.
// fmRefine computes it once per step instead of testing both conditions
// for every candidate.
func moveWindow(w0, target0, lo0, hi0 int64) (lo, hi [2]int64) {
	d := w0 - target0
	if d < 0 {
		d = -d
	}
	aLo, aHi := min(lo0, target0-d+1), max(hi0, target0+d-1)
	// Moving a vertex of weight wv off side 0 leaves side 0 at w0-wv;
	// moving one off side 1 brings it to w0+wv.
	return [2]int64{w0 - aHi, aLo - w0}, [2]int64{w0 - aLo, aHi - w0}
}

// kwayRefine runs greedy k-way boundary refinement: vertices on part
// boundaries move to the neighboring part with the strongest connection when
// that reduces the cut (or equals it while improving balance), subject to an
// upper bound on the destination part's weight. Linear time per pass.
func kwayRefine(g *Graph, part []int, k int, tol float64, maxPasses int, rng *stats.SplitMix64, scr *mlScratch) {
	n := g.NumVertices()
	total := g.TotalVWgt()
	maxW := int64(float64(total)/float64(k)*(1+tol)) + 1
	scr.w = grow(scr.w, k)
	w := scr.w
	for i := range w {
		w[i] = 0
	}
	for v := 0; v < n; v++ {
		w[part[v]] += int64(g.VWgt[v])
	}
	scr.conn = grow(scr.conn, k)
	conn := scr.conn
	for i := range conn {
		conn[i] = 0
	}
	touched := scr.touchedP[:0]
	defer func() { scr.touchedP = touched[:0] }()
	scr.order = grow(scr.order, n)
	order := scr.order

	// Balance-enforcement phase: while any part exceeds maxW, push its
	// boundary vertices into the most-connected non-overweight neighbor
	// part, accepting cut increases. Projection from a coarse level can
	// leave parts overweight because coarse vertices are indivisible; at
	// finer levels vertices shrink and this phase restores the tolerance.
	for round := 0; round < maxPasses+2; round++ {
		over := false
		for _, pw := range w {
			if pw > maxW {
				over = true
				break
			}
		}
		if !over {
			break
		}
		moved := 0
		randomOrderInto(order, rng)
		for _, v32 := range order {
			v := int(v32)
			pv := part[v]
			if w[pv] <= maxW {
				continue
			}
			touched = touched[:0]
			for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
				pu := part[g.Adjncy[e]]
				if conn[pu] == 0 {
					touched = append(touched, pu)
				}
				conn[pu] += int64(g.AdjWgt[e])
			}
			vw := int64(g.VWgt[v])
			bestP := -1
			var bestConn int64 = -1
			for _, p := range touched {
				if p == pv || w[p]+vw > maxW {
					continue
				}
				if conn[p] > bestConn || (conn[p] == bestConn && bestP >= 0 && w[p] < w[bestP]) {
					bestConn = conn[p]
					bestP = p
				}
			}
			if bestP < 0 {
				// Cascade fallback: all neighbors are themselves at the
				// bound; push into the lightest one anyway as long as that
				// strictly levels the pair, letting weight percolate toward
				// underweight parts over subsequent rounds.
				for _, p := range touched {
					if p == pv || w[p]+vw >= w[pv] {
						continue
					}
					if bestP < 0 || w[p] < w[bestP] {
						bestP = p
					}
				}
			}
			if bestP >= 0 {
				w[pv] -= vw
				w[bestP] += vw
				part[v] = bestP
				moved++
			}
			for _, p := range touched {
				conn[p] = 0
			}
		}
		if moved == 0 {
			break
		}
	}

	// Boundary counts for the refinement passes: nExtK[v] is how many of
	// v's neighbors live in another part. Interior vertices (the vast
	// majority on fine graphs) skip their whole edge scan — behaviorally
	// identical to the scan-then-do-nothing the unconditional loop
	// performed, since an interior vertex never moves and touches no
	// state. Counts are maintained incrementally on every move. Computed
	// after the balance phase (which moves vertices without reading them).
	scr.nExt = grow(scr.nExt, n)
	nExtK := scr.nExt
	for v := 0; v < n; v++ {
		pv := part[v]
		cnt := int32(0)
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			if part[g.Adjncy[e]] != pv {
				cnt++
			}
		}
		nExtK[v] = cnt
	}

	for pass := 0; pass < maxPasses; pass++ {
		moved := 0
		randomOrderInto(order, rng)
		for _, v32 := range order {
			v := int(v32)
			if nExtK[v] == 0 {
				continue // interior: no move possible, no state to touch
			}
			pv := part[v]
			// Connectivity of v to each adjacent part.
			touched = touched[:0]
			for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
				pu := part[g.Adjncy[e]]
				if conn[pu] == 0 {
					touched = append(touched, pu)
				}
				conn[pu] += int64(g.AdjWgt[e])
			}
			vw := int64(g.VWgt[v])
			bestP := -1
			var bestConn int64 = -1
			for _, p := range touched {
				if p == pv {
					continue
				}
				if w[p]+vw > maxW {
					continue
				}
				if conn[p] > bestConn || (conn[p] == bestConn && bestP >= 0 && w[p] < w[bestP]) {
					bestConn = conn[p]
					bestP = p
				}
			}
			if bestP >= 0 {
				gain := bestConn - conn[pv]
				if gain > 0 || (gain == 0 && w[pv] > w[bestP]+vw) {
					w[pv] -= vw
					w[bestP] += vw
					part[v] = bestP
					moved++
					// Maintain boundary counts: each incident edge's
					// crossing status may change as v leaves pv for bestP.
					cnt := int32(0)
					for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
						u := g.Adjncy[e]
						pu := part[u]
						before := pu != pv
						after := pu != bestP
						if before != after {
							if after {
								nExtK[u]++
							} else {
								nExtK[u]--
							}
						}
						if after {
							cnt++
						}
					}
					nExtK[v] = cnt
				}
			}
			for _, p := range touched {
				conn[p] = 0
			}
		}
		if moved == 0 {
			return
		}
	}
}

// String describes the configuration.
func (ml *Multilevel) String() string {
	return fmt.Sprintf("multilevel(seed=%d, coarsenTo=%d, tries=%d, tol=%.2f)",
		ml.Seed, ml.coarsenTo(), ml.tries(), ml.maxImbalance())
}
