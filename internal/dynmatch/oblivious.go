package dynmatch

import (
	"math/rand/v2"

	"repro/internal/arcs"
	"repro/internal/graph"
)

// ObliviousMaintainer implements the simpler dynamic scheme the paper
// sketches for the OBLIVIOUS-adversary model (Section 3.3): the sparsifier
// G_Δ itself is maintained under updates — following every update touching
// u and v, the marks made "due to" u and due to v are discarded and
// replaced by Δ fresh random incident edges, at O(Δ) worst-case cost — and
// the matching is maintained by Gupta–Peng windowed recomputation running
// directly on the maintained sparsifier.
//
// Against an oblivious adversary this is correct (the proof of Theorem 2.1
// applies verbatim, since update positions are independent of the marks).
// Against an ADAPTIVE adversary the proof breaks: the output matching
// reveals marked edges, and deleting exactly those forces correlated
// remarking. The experiments use this type as the ablation contrasting with
// Maintainer, whose fresh-randomness-per-window design is adaptive-safe.
type ObliviousMaintainer struct {
	window
	g     *graph.Dynamic
	sp    *graph.Dynamic  // the maintained sparsifier (union of marks)
	marks [][]int32       // marks[v] = neighbors marked due to v
	count map[uint64]int8 // endpoints marking each packed arc (1 or 2)
	rng   *rand.Rand
}

// NewOblivious creates an ObliviousMaintainer over an empty graph.
// It panics on invalid opt.Beta or opt.Eps.
func NewOblivious(n int, opt Options, seed uint64) *ObliviousMaintainer {
	opt, maxLen := opt.resolve()
	sp := graph.NewDynamic(n)
	rng := rand.New(rand.NewPCG(seed, 0x0b11f))
	// The recompute run reads the maintained sparsifier; its own sampling
	// stage degenerates to "take everything" because sparsifier degrees are
	// already O(Δ).
	return &ObliviousMaintainer{
		window: newWindow(sp, opt, maxLen, rng),
		g:      graph.NewDynamic(n),
		sp:     sp,
		marks:  make([][]int32, n),
		count:  make(map[uint64]int8),
		rng:    rng,
	}
}

// Graph exposes the dynamic graph.
func (mt *ObliviousMaintainer) Graph() *graph.Dynamic { return mt.g }

// SparsifierEdges returns the current sparsifier size.
func (mt *ObliviousMaintainer) SparsifierEdges() int { return mt.sp.M() }

// Insert adds {u, v} and re-marks both endpoints.
func (mt *ObliviousMaintainer) Insert(u, v int32) bool {
	added := mt.g.Insert(u, v)
	if added {
		mt.remark(u)
		mt.remark(v)
	}
	mt.advance(2 * int64(mt.delta)) // charge the remarks
	return added
}

// Delete removes {u, v}, evicts it from the matching and the sparsifier,
// and re-marks both endpoints.
func (mt *ObliviousMaintainer) Delete(u, v int32) bool {
	existed := mt.g.Delete(u, v)
	if existed {
		mt.removeEdge(u, v)
		mt.remark(u)
		mt.remark(v)
	}
	mt.advance(2 * int64(mt.delta)) // charge the remarks
	return existed
}

// remark discards v's marks and draws Δ fresh random incident edges
// (all of them if deg(v) ≤ 2Δ) — the O(Δ) sparsifier repair step.
func (mt *ObliviousMaintainer) remark(v int32) {
	for _, w := range mt.marks[v] {
		k := arcs.Pack(v, w)
		if c := mt.count[k]; c <= 1 {
			delete(mt.count, k)
			if mt.sp.Delete(v, w) {
				// The edge left the sparsifier entirely; it can no longer
				// support the in-progress matching.
				mt.run.removeEdge(v, w)
			}
		} else {
			mt.count[k] = c - 1
		}
	}
	mt.marks[v] = mt.marks[v][:0]
	d := mt.g.Degree(v)
	if d == 0 {
		return
	}
	addMark := func(w int32) {
		mt.count[arcs.Pack(v, w)]++
		mt.sp.Insert(v, w)
		mt.marks[v] = append(mt.marks[v], w)
	}
	if d <= 2*mt.delta {
		for _, w := range mt.g.Neighbors(v) {
			addMark(w)
		}
		return
	}
	seen := make(map[int]bool, mt.delta)
	for len(seen) < mt.delta {
		i := mt.rng.IntN(d)
		if seen[i] {
			continue
		}
		seen[i] = true
		addMark(mt.g.Neighbor(v, i))
	}
}
