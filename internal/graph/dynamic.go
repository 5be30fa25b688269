package graph

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"repro/internal/invariant"
)

// Dynamic is a mutable undirected graph over a fixed vertex set supporting
// O(1) expected-time edge insertion, deletion, and membership queries, plus
// O(1) uniform sampling of a random incident edge — the operations required
// by the fully dynamic setting of Section 3.3.
//
// Adjacency is stored as per-vertex slices with a companion index map, so
// deletions are swap-removals and iteration over neighbors is cache-friendly.
// A bitset with one bit per vertex, set iff the vertex has positive degree,
// lets passes over the vertex set skip isolated vertices 64 at a time
// (NextNonIsolated). Dynamic is not safe for concurrent mutation.
type Dynamic struct {
	adj    [][]int32       // adjacency lists (unordered)
	idx    []map[int32]int // idx[v][w] = position of w in adj[v]
	m      int             // number of edges
	nonIso []uint64        // bit v set iff len(adj[v]) > 0
}

// NewDynamic returns an empty dynamic graph on n vertices.
func NewDynamic(n int) *Dynamic {
	if n < 0 {
		invariant.Violatef("graph: negative vertex count %d", n)
	}
	d := &Dynamic{
		adj:    make([][]int32, n),
		idx:    make([]map[int32]int, n),
		nonIso: make([]uint64, (n+63)/64),
	}
	for v := range d.idx {
		d.idx[v] = make(map[int32]int)
	}
	return d
}

// DynamicFrom returns a dynamic graph initialized with the edges of g.
func DynamicFrom(g *Static) *Dynamic {
	d := NewDynamic(g.N())
	g.ForEachEdge(func(u, v int32) { d.Insert(u, v) })
	return d
}

// DynamicFromAdjacency reconstructs a dynamic graph from an explicit
// per-vertex adjacency, preserving the EXACT slot order. DynamicFrom
// re-inserts edges and so normalizes the layout; checkpoint restoration
// cannot afford that, because randomized algorithms sampling by
// Neighbor(v, i) index replay identically only if the slots line up. The
// adjacency is deep-copied and checked for range, self-loops, duplicates,
// and symmetry. The non-isolated bitset is rebuilt from the degrees.
func DynamicFromAdjacency(adj [][]int32) (*Dynamic, error) {
	n := len(adj)
	d := &Dynamic{
		adj:    make([][]int32, n),
		idx:    make([]map[int32]int, n),
		nonIso: make([]uint64, (n+63)/64),
	}
	arcsN := 0
	for v := range adj {
		if len(adj[v]) > 0 {
			d.nonIso[v>>6] |= 1 << (v & 63)
		}
		d.adj[v] = append([]int32(nil), adj[v]...)
		d.idx[v] = make(map[int32]int, len(adj[v]))
		for i, w := range adj[v] {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: adjacency of %d references vertex %d outside [0,%d)", v, w, n)
			}
			if int(w) == v {
				return nil, fmt.Errorf("graph: self-loop at %d", v)
			}
			if _, dup := d.idx[v][w]; dup {
				return nil, fmt.Errorf("graph: duplicate neighbor %d of %d", w, v)
			}
			d.idx[v][w] = i
			arcsN++
		}
	}
	for v := range d.adj {
		for _, w := range d.adj[v] {
			if !d.HasEdge(w, int32(v)) {
				return nil, fmt.Errorf("graph: asymmetric edge (%d,%d)", v, w)
			}
		}
	}
	d.m = arcsN / 2
	return d, nil
}

// N returns the number of vertices.
func (d *Dynamic) N() int { return len(d.adj) }

// M returns the number of edges.
func (d *Dynamic) M() int { return d.m }

// Degree returns the degree of v.
func (d *Dynamic) Degree(v int32) int { return len(d.adj[v]) }

// HasEdge reports whether {u, v} is currently an edge.
func (d *Dynamic) HasEdge(u, v int32) bool {
	_, ok := d.idx[u][v]
	return ok
}

// Insert adds the edge {u, v}. It reports whether the edge was newly added
// (false if it was already present or u == v).
func (d *Dynamic) Insert(u, v int32) bool {
	if u == v || d.HasEdge(u, v) {
		return false
	}
	d.nonIso[u>>6] |= 1 << (u & 63)
	d.nonIso[v>>6] |= 1 << (v & 63)
	d.idx[u][v] = len(d.adj[u])
	d.adj[u] = append(d.adj[u], v)
	d.idx[v][u] = len(d.adj[v])
	d.adj[v] = append(d.adj[v], u)
	d.m++
	return true
}

// Delete removes the edge {u, v}. It reports whether the edge was present.
func (d *Dynamic) Delete(u, v int32) bool {
	if !d.HasEdge(u, v) {
		return false
	}
	d.removeArc(u, v)
	d.removeArc(v, u)
	d.m--
	return true
}

func (d *Dynamic) removeArc(u, v int32) {
	i := d.idx[u][v]
	last := len(d.adj[u]) - 1
	moved := d.adj[u][last]
	d.adj[u][i] = moved
	d.idx[u][moved] = i
	d.adj[u] = d.adj[u][:last]
	delete(d.idx[u], v)
	if last == 0 {
		d.nonIso[u>>6] &^= 1 << (u & 63)
	}
}

// NextNonIsolated returns the first vertex u ≥ v with positive degree,
// scanning at most maxWords 64-vertex words of the non-isolated bitset,
// together with the number of words it scanned. When no such vertex exists
// it returns N() and found = false; when the word bound runs out first it
// returns the first vertex of the next unscanned word and found = false, so
// a caller can resume the scan from there. The cost is O(words), which lets
// a pass over the vertex set run in O(n/64 + non-isolated vertices).
func (d *Dynamic) NextNonIsolated(v int32, maxWords int) (u int32, words int, found bool) {
	n := len(d.adj)
	if int(v) >= n || maxWords <= 0 {
		return min(v, int32(n)), 0, false
	}
	i := int(v >> 6)
	w := d.nonIso[i] &^ (1<<(v&63) - 1) // drop the vertices below v
	for words = 1; ; words++ {
		if w != 0 {
			return int32(i<<6 + bits.TrailingZeros64(w)), words, true
		}
		if i++; i == len(d.nonIso) {
			return int32(n), words, false
		}
		if words == maxWords {
			return int32(i << 6), words, false
		}
		w = d.nonIso[i]
	}
}

// Neighbor returns the i-th neighbor of v in the current (unordered)
// adjacency list, in O(1) time.
func (d *Dynamic) Neighbor(v int32, i int) int32 { return d.adj[v][i] }

// Neighbors returns the current adjacency list of v as a shared slice in
// unspecified order. Callers must not modify it and must not hold it across
// mutations.
func (d *Dynamic) Neighbors(v int32) []int32 { return d.adj[v] }

// RandomNeighbor returns a uniformly random neighbor of v, or -1 if v is
// isolated.
func (d *Dynamic) RandomNeighbor(v int32, rng *rand.Rand) int32 {
	if len(d.adj[v]) == 0 {
		return -1
	}
	return d.adj[v][rng.IntN(len(d.adj[v]))]
}

// Snapshot returns an immutable copy of the current graph.
func (d *Dynamic) Snapshot() *Static {
	b := NewBuilder(d.N())
	for v := int32(0); v < int32(d.N()); v++ {
		for _, w := range d.adj[v] {
			if v < w {
				b.AddEdge(v, w)
			}
		}
	}
	return b.Build()
}

// ForEachEdge calls fn once per edge with u < v, in unspecified order.
func (d *Dynamic) ForEachEdge(fn func(u, v int32)) {
	for v := int32(0); v < int32(d.N()); v++ {
		for _, w := range d.adj[v] {
			if v < w {
				fn(v, w)
			}
		}
	}
}

// Validate checks internal consistency (index maps agree with adjacency
// slices, symmetry, edge count, non-isolated bitset). For tests.
func (d *Dynamic) Validate() error {
	count := 0
	for v := int32(0); v < int32(d.N()); v++ {
		if len(d.adj[v]) != len(d.idx[v]) {
			return fmt.Errorf("graph: vertex %d adj/idx size mismatch", v)
		}
		if set := d.nonIso[v>>6]>>(v&63)&1 == 1; set != (len(d.adj[v]) > 0) {
			return fmt.Errorf("graph: vertex %d non-isolated bit %v, degree %d", v, set, len(d.adj[v]))
		}
		for i, w := range d.adj[v] {
			if d.idx[v][w] != i {
				return fmt.Errorf("graph: vertex %d idx[%d]=%d want %d", v, w, d.idx[v][w], i)
			}
			if w == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if !d.HasEdge(w, v) {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", v, w)
			}
			count++
		}
	}
	if count != 2*d.m {
		return fmt.Errorf("graph: arc count %d != 2m = %d", count, 2*d.m)
	}
	return nil
}
