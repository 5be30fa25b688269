package graph

import (
	"math/rand/v2"
	"testing"

	"repro/internal/invariant"
)

// TestSubgraphBuilder builds random edge subsets of random graphs of
// shrinking and growing size through one builder and one recycled
// destination, in shuffled edge order, and checks each result against
// FromEdges over the same subset.
func TestSubgraphBuilder(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	var b SubgraphBuilder
	var dst Static
	for _, n := range []int{60, 5, 0, 1, 90, 2, 40} {
		bld := NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			bld.AddEdge(int32(rng.IntN(n)), int32(rng.IntN(n)))
		}
		edges := bld.Build().Edges()
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		keep := make([]bool, len(edges))
		deg := make([]int32, n)
		var kept []Edge
		for i, e := range edges {
			if keep[i] = rng.IntN(3) > 0; keep[i] {
				deg[e.U]++
				deg[e.V]++
				kept = append(kept, e)
			}
		}
		want := FromEdges(n, kept)
		for _, got := range []*Static{b.BuildInto(new(Static), edges, keep, deg), b.BuildInto(&dst, edges, keep, deg)} {
			if err := got.Validate(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if !Equal(got, want) || got.MaxDegree() != want.MaxDegree() {
				t.Fatalf("n=%d: subgraph differs from FromEdges over the kept edges", n)
			}
		}
	}
}

// TestSubgraphBuilderDegreeMismatch checks that a deg array that disagrees
// with the kept edges panics with an invariant violation instead of
// building a corrupt graph.
func TestSubgraphBuilderDegreeMismatch(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}
	keep := []bool{true, false, true}
	for _, deg := range [][]int32{
		{1, 2, 0, 1}, // right total, wrong split
		{1, 2, 2, 1}, // edge (1,2) counted though dropped
	} {
		func() {
			defer func() {
				if _, ok := recover().(*invariant.Violation); !ok {
					t.Errorf("deg %v: expected an invariant violation", deg)
				}
			}()
			var b SubgraphBuilder
			b.BuildInto(new(Static), edges, keep, deg)
		}()
	}
}
