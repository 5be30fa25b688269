// Package dynmatch maintains a (1+ε)-approximate maximum matching in a
// fully dynamic graph of bounded neighborhood independence with a
// worst-case update-time budget of O((β/ε³)·log(1/ε)) work units per update
// (Theorem 3.5 of the paper).
//
// The construction follows the Gupta–Peng stability-window scheme: the
// output matching M is recomputed from scratch every window of
// Θ(ε·|M|) updates by the static sparsify-then-match pipeline of
// Theorem 3.1, with the static computation sliced into a fixed per-update
// work budget so that the update time holds in the worst case, not just
// amortized. Edges deleted mid-window are removed from the output matching
// immediately, which by the stability lemma (Lemma 3.4) keeps the
// approximation factor at 1+O(ε) throughout the window. The randomness of
// each recomputation is fresh, so the guarantee holds against an adaptive
// adversary: the adversary sees only the current matching, which reveals
// nothing about the marks the *next* recomputation will draw.
package dynmatch

import (
	"math/rand/v2"

	"repro/internal/graph"
)

// staticRun is the paper's static (1+ε) pipeline — sample Δ incident edges
// per vertex, greedy matching, bounded-length augmentation sweeps — as an
// explicitly resumable state machine. Step(budget) performs up to budget
// work units and reports completion; units are counted per visited vertex,
// per sampled edge, per scanned adjacency entry, per DFS edge expansion,
// and per 64-vertex word of the graph's non-isolated bitset scanned, so a
// unit is a constant amount of real work.
//
// Every pass moves its cursor from one non-isolated vertex of the live
// graph to the next with graph.Dynamic.NextNonIsolated. A vertex that is
// isolated when the cursor reaches it draws no randomness and changes no
// state in any phase (it has no live edge to sample, match or augment
// along), so skipping it leaves every coin flip and every mate as they
// were; it only removes the per-vertex unit. A pass therefore costs
// O(n/64 + n′) plus the sampled work, where n′ ≤ (β+2)·|MCM| is the number
// of non-isolated vertices (Lemma 2.2).
type staticRun struct {
	g       *graph.Dynamic
	delta   int
	maxLen  int   // augmenting-path length bound 2⌈1/ε⌉−1
	sweeps  int   // number of augmentation sweeps over the free vertices
	workCap int64 // units one augmenting DFS may spend

	phase    int // 0 = sample, 1 = greedy, 2 = augment, 3 = done
	cursor   int32
	sweep    int
	progress bool // did the current augmentation sweep augment anything?
	adj      [][]int32
	touched  []int32 // every v with a non-empty adj[v]
	mate     []int32
	matched  []int32 // every v with mate[v] >= 0 (possibly more, possibly twice)
	size     int     // matched pairs in mate, maintained incrementally
	visited  []int32
	epoch    int32
	dfsCost  int64 // units spent by the augmenting DFS in flight
	rng      *rand.Rand
	units    int64
	seen     map[int]bool // scratch for distinct-index sampling
}

const (
	phaseSample = iota
	phaseGreedy
	phaseAugment
	phaseDone
)

// runBuffers holds the reusable arrays of consecutive static runs: the
// sampled adjacency's backing arrays, the epoch-stamped visited array, and
// the mate array the next run starts from. Reuse avoids re-allocating
// Θ(n + nΔ) memory at every window swap, which would otherwise dominate the
// wall-clock update time via the garbage collector. The mate array is the
// output matching a swap replaced (see window.swap); it is handed back
// dirty, and the touched and matched lists name the only entries that a
// new run must reset, so starting a run costs O(touched + matched), not
// O(n).
type runBuffers struct {
	adj     [][]int32
	touched []int32
	mate    []int32
	matched []int32
	visited []int32
	epoch   int32
	seen    map[int]bool
}

func newRunBuffers(n, delta int) *runBuffers {
	b := &runBuffers{
		adj:     make([][]int32, n),
		mate:    make([]int32, n),
		visited: make([]int32, n),
		seen:    make(map[int]bool, delta),
	}
	for i := range b.visited {
		b.visited[i], b.mate[i] = -1, -1
	}
	return b
}

func newStaticRun(g *graph.Dynamic, delta, maxLen, sweeps int, rng *rand.Rand) *staticRun {
	return newStaticRunBuf(g, delta, maxLen, sweeps, rng, newRunBuffers(g.N(), delta))
}

// newStaticRunBuf builds a run over the given buffers, sized for g, after
// resetting the adjacency rows and mate entries their lists name; the
// buffers must not be shared with a still-active run.
func newStaticRunBuf(g *graph.Dynamic, delta, maxLen, sweeps int, rng *rand.Rand, buf *runBuffers) *staticRun {
	for _, v := range buf.touched {
		buf.adj[v] = buf.adj[v][:0] // keep backing arrays
	}
	for _, v := range buf.matched {
		buf.mate[v] = -1
	}
	return &staticRun{
		g:       g,
		delta:   delta,
		maxLen:  maxLen,
		sweeps:  sweeps,
		workCap: int64(8 * (delta + 1) * (maxLen + 1)),
		adj:     buf.adj,
		touched: buf.touched[:0],
		mate:    buf.mate,
		matched: buf.matched[:0],
		visited: buf.visited,
		epoch:   buf.epoch,
		rng:     rng,
		seen:    buf.seen,
	}
}

// releaseInto returns the run's reusable scratch to buf (epoch continuity
// keeps the visited stamps valid across runs). The mate array and its
// matched list are not returned: they become the output matching.
func (r *staticRun) releaseInto(buf *runBuffers) {
	buf.adj = r.adj
	buf.touched = r.touched
	buf.visited = r.visited
	buf.epoch = r.epoch
	buf.seen = r.seen
}

// step runs up to budget units; returns true when the pipeline is complete.
func (r *staticRun) step(budget int64) bool {
	spent := int64(0)
	for spent < budget && r.phase != phaseDone {
		if r.phase == phaseAugment && r.sweep >= r.sweeps {
			r.phase = phaseDone
			break
		}
		// Never scan more bitset words than the update has units left; an
		// unfinished scan resumes from the cursor on the next step.
		v, words, found := r.g.NextNonIsolated(r.cursor, int(budget-spent))
		r.cursor = v
		spent += int64(words)
		if !found {
			if int(v) >= r.g.N() {
				r.endPass()
			}
			continue
		}
		switch r.phase {
		case phaseSample:
			spent += r.sampleVertex(v)
		case phaseGreedy:
			spent += r.greedyVertex(v)
		case phaseAugment:
			spent += r.augmentVertex(v)
		}
		r.cursor++
	}
	r.units += spent
	return r.phase == phaseDone
}

// endPass moves to the next pass once the cursor has passed the last
// vertex.
func (r *staticRun) endPass() {
	r.cursor = 0
	switch r.phase {
	case phaseSample:
		r.phase = phaseGreedy
	case phaseGreedy:
		r.phase, r.sweep = phaseAugment, 0
	case phaseAugment:
		if !r.progress {
			// A sweep without augmentations is a fixed point; further
			// sweeps would only burn budget.
			r.phase = phaseDone
			return
		}
		r.progress = false
		r.sweep++
	}
}

// link appends w to v's sampled adjacency, recording v's first entry.
func (r *staticRun) link(v, w int32) {
	if len(r.adj[v]) == 0 {
		r.touched = append(r.touched, v)
	}
	r.adj[v] = append(r.adj[v], w)
}

// sampleVertex marks min(Δ, deg) random incident edges of a non-isolated v
// (all edges when deg ≤ 2Δ) from the live graph, appending them to the
// sampled adjacency.
func (r *staticRun) sampleVertex(v int32) int64 {
	d := r.g.Degree(v)
	if d <= 2*r.delta {
		for _, w := range r.g.Neighbors(v) {
			r.link(v, w)
			r.link(w, v)
		}
		return int64(d)
	}
	clear(r.seen)
	for len(r.seen) < r.delta {
		i := r.rng.IntN(d)
		if r.seen[i] {
			continue
		}
		r.seen[i] = true
		w := r.g.Neighbor(v, i)
		r.link(v, w)
		r.link(w, v)
	}
	return int64(2 * r.delta) // expected cost of the rejection sampling
}

// greedyVertex matches v to its first free sampled neighbor that is still a
// live edge.
func (r *staticRun) greedyVertex(v int32) int64 {
	if r.mate[v] >= 0 {
		return 1
	}
	cost := int64(1)
	for _, w := range r.adj[v] {
		cost++
		if r.mate[w] < 0 && w != v && r.g.HasEdge(v, w) {
			r.mate[v], r.mate[w] = w, v
			r.matched = append(r.matched, v, w)
			r.size++
			break
		}
	}
	return cost
}

// augmentVertex runs one bounded-length augmenting DFS from v if free.
// The DFS work is capped so a single update's budget overrun stays bounded.
func (r *staticRun) augmentVertex(v int32) int64 {
	if r.mate[v] >= 0 || len(r.adj[v]) == 0 {
		return 1
	}
	r.dfsCost = 1
	r.epoch++
	if r.dfs(v, r.maxLen) {
		// The root is paired while the DFS unwinds, not at the terminal
		// frame, so it joins the matched list here.
		r.matched = append(r.matched, v)
	}
	return r.dfsCost
}

// dfs searches for an augmenting path of at most depth edges from x,
// flipping it into the matching on success.
func (r *staticRun) dfs(x int32, depth int) bool {
	r.visited[x] = r.epoch
	for _, w := range r.adj[x] {
		if r.dfsCost++; r.dfsCost > r.workCap {
			return false
		}
		if r.visited[w] == r.epoch || !r.g.HasEdge(x, w) {
			continue
		}
		m := r.mate[w]
		if m < 0 {
			r.mate[x], r.mate[w] = w, x
			r.matched = append(r.matched, w)
			r.size++ // every frame above re-pairs, so net gain is one
			r.progress = true
			return true
		}
		if depth >= 2 && r.visited[m] != r.epoch {
			r.visited[w] = r.epoch
			r.mate[w], r.mate[m] = -1, -1
			if r.dfs(m, depth-2) {
				r.mate[x], r.mate[w] = w, x
				return true
			}
			r.mate[w], r.mate[m] = m, w
		}
	}
	return false
}

// removeEdge evicts {u, v} from the in-progress matching in O(1). The
// maintainer calls it on every deletion, so the run's matching only ever
// contains live edges: matches are created only on edges verified live
// (greedyVertex and the DFS both check HasEdge), and deletions evict them
// immediately afterwards.
func (r *staticRun) removeEdge(u, v int32) {
	if r.mate[u] == v {
		r.mate[u], r.mate[v] = -1, -1
		r.size--
	}
}

// result hands over the computed mate array and its size; every matched
// pair is a live edge (see removeEdge). The run must not be used afterwards.
func (r *staticRun) result() ([]int32, int) { return r.mate, r.size }
