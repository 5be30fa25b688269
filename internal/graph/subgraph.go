package graph

import (
	"slices"

	"repro/internal/invariant"
)

// Induced returns the subgraph of g induced by the vertex set verts,
// together with the mapping from new vertex ids (0..len(verts)-1) back to
// the original ids. Duplicate vertices in verts are ignored.
func Induced(g *Static, verts []int32) (*Static, []int32) {
	inSet := make(map[int32]int32, len(verts))
	var orig []int32
	for _, v := range verts {
		if _, ok := inSet[v]; !ok {
			inSet[v] = int32(len(orig))
			orig = append(orig, v)
		}
	}
	b := NewBuilder(len(orig))
	for _, v := range orig {
		nv := inSet[v]
		for _, w := range g.Neighbors(v) {
			if nw, ok := inSet[w]; ok && nv < nw {
				b.AddEdge(nv, nw)
			}
		}
	}
	return b.Build(), orig
}

// InducedInPlace returns the subgraph of g keeping original vertex ids:
// vertices outside keep become isolated. keep[v] tells whether v survives.
func InducedInPlace(g *Static, keep []bool) *Static {
	b := NewBuilder(g.N())
	g.ForEachEdge(func(u, v int32) {
		if keep[u] && keep[v] {
			b.AddEdge(u, v)
		}
	})
	return b.Build()
}

// Union returns the graph on max(g.N(), h.N()) vertices containing the
// edges of both g and h.
func Union(g, h *Static) *Static {
	n := g.N()
	if h.N() > n {
		n = h.N()
	}
	b := NewBuilder(n)
	g.ForEachEdge(b.AddEdge)
	h.ForEachEdge(b.AddEdge)
	return b.Build()
}

// SubgraphBuilder builds the subgraph of a simple graph given by a subset
// of its edges, in O(n + kept edges) with no sort, reusing its scratch from
// one build to the next. The zero value is ready to use. A SubgraphBuilder
// is not safe for concurrent use.
type SubgraphBuilder struct {
	offsets []int64
	rows    []int32
}

// BuildInto overwrites dst with the graph on len(deg) vertices whose edges
// are the edges[i] with keep[i], reusing dst's arrays when their capacity
// suffices, and returns dst; pass new(Static) for a fresh graph. deg[v]
// must be the number of kept edges at v, and the kept edges must be
// distinct and loop-free, as every subset of a Static's edges is. dst must
// not be read by anyone else while it is rebuilt.
//
// The kept edges are scattered, unsorted, into windows sized by deg; the
// transpose of symmetricInto then writes them into dst sorted. It panics
// when a window's fill disagrees with deg.
func (b *SubgraphBuilder) BuildInto(dst *Static, edges []Edge, keep []bool, deg []int32) *Static {
	n := len(deg)
	offs := slices.Grow(b.offsets[:0], n+1)[:n+1]
	offs[0] = 0
	var total int64
	for v, d := range deg {
		offs[v+1] = total // v's window start, then its fill cursor
		total += int64(d)
	}
	rows := slices.Grow(b.rows[:0], int(total))[:total]
	for i, e := range edges {
		if keep[i] {
			rows[offs[e.U+1]] = e.V
			offs[e.U+1]++
			rows[offs[e.V+1]] = e.U
			offs[e.V+1]++
		}
	}
	// Every cursor now sits at its window's end; window v holds deg[v]
	// entries for every v iff consecutive ends differ by deg.
	for v, d := range deg {
		if offs[v+1]-offs[v] != int64(d) {
			invariant.Violatef("graph: vertex %d has %d kept edges, deg says %d", v, offs[v+1]-offs[v], d)
		}
	}
	b.offsets, b.rows = offs, rows
	return symmetricInto(dst, n, func(v int32) []int32 { return rows[offs[v]:offs[v+1]] })
}

// symmetricInto overwrites dst with the CSR of the graph on n vertices whose
// adjacency rows are row(0), …, row(n−1), reusing dst's arrays when their
// capacity suffices, and returns dst. The rows may be in any order but must
// be loop-free, duplicate-free and symmetric (w ∈ row(v) ⟺ v ∈ row(w)).
//
// Offsets come from the row lengths. One scatter over the sources in
// ascending order then writes v into the window of every w ∈ row(v); by
// symmetry window w receives exactly row(w), in ascending order of source,
// so every window comes out sorted with no comparison. The work is
// O(n + Σ|row(v)|).
func symmetricInto(dst *Static, n int, row func(v int32) []int32) *Static {
	offsets := slices.Grow(dst.offsets[:0], n+1)[:n+1]
	offsets[0] = 0
	var total int64
	maxDeg := 0
	for v := int32(0); v < int32(n); v++ {
		offsets[v+1] = total // v's window start, then its fill cursor
		d := len(row(v))
		total += int64(d)
		maxDeg = max(maxDeg, d)
	}
	neighbors := slices.Grow(dst.neighbors[:0], int(total))[:total]
	for v := int32(0); v < int32(n); v++ {
		for _, w := range row(v) {
			neighbors[offsets[w+1]] = v
			offsets[w+1]++
		}
	}
	dst.offsets, dst.neighbors, dst.maxDeg = offsets, neighbors, maxDeg
	return dst
}

// ConnectedComponents returns, for each vertex, the id of its component,
// plus the number of components. Isolated vertices get their own component.
func ConnectedComponents(g *Static) (comp []int32, count int) {
	n := g.N()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var queue []int32
	c := int32(0)
	for s := int32(0); s < int32(n); s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = c
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(v) {
				if comp[w] < 0 {
					comp[w] = c
					queue = append(queue, w)
				}
			}
		}
		c++
	}
	return comp, int(c)
}
