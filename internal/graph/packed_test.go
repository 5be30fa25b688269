package graph

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/arcs"
)

func pack(u, v int32) uint64 { return arcs.Pack(u, v) }

func randomKeys(n, m int, seed uint64) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 17))
	keys := make([]uint64, 0, m)
	for len(keys) < m {
		u, v := int32(rng.IntN(n)), int32(rng.IntN(n))
		if u == v {
			continue
		}
		keys = append(keys, pack(u, v))
	}
	return keys
}

func TestFromPackedArcsMatchesFromEdges(t *testing.T) {
	const n, m = 120, 600
	keys := randomKeys(n, m, 3)
	// Duplicate a chunk to exercise deduplication.
	keys = append(keys, keys[:50]...)
	edges := make([]Edge, len(keys))
	for i, k := range keys {
		edges[i] = Edge{U: int32(k >> 32), V: int32(uint32(k))}
	}
	a := FromPackedArcs(n, keys)
	b := FromEdges(n, edges)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.M() != b.M() || a.N() != b.N() {
		t.Fatalf("FromPackedArcs (n=%d m=%d) differs from FromEdges (n=%d m=%d)", a.N(), a.M(), b.N(), b.M())
	}
	for v := int32(0); v < n; v++ {
		if !slices.Equal(a.Neighbors(v), b.Neighbors(v)) {
			t.Fatalf("adjacency of %d differs: %v vs %v", v, a.Neighbors(v), b.Neighbors(v))
		}
	}
}

func TestFromPackedArcsDoesNotMutateInput(t *testing.T) {
	keys := randomKeys(50, 200, 5)
	orig := slices.Clone(keys)
	FromPackedArcs(50, keys)
	if !slices.Equal(keys, orig) {
		t.Error("FromPackedArcs mutated its input slice")
	}
}

func TestBuilderAddPacked(t *testing.T) {
	b := NewBuilder(6)
	b.AddPacked(pack(4, 1)) // already canonical by pack
	b.AddPacked(uint64(5)<<32 | 2)
	b.AddEdge(0, 3)
	g := b.Build()
	for _, e := range []Edge{{1, 4}, {2, 5}, {0, 3}} {
		if !g.HasEdge(e.U, e.V) {
			t.Errorf("edge %v missing", e)
		}
	}
	if g.M() != 3 {
		t.Errorf("m = %d, want 3", g.M())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range AddPacked did not panic")
			}
		}()
		b.AddPacked(pack(0, 99))
	}()
}

func TestFromPackedArcsEmpty(t *testing.T) {
	g := FromPackedArcs(4, nil)
	if g.N() != 4 || g.M() != 0 {
		t.Errorf("empty build: n=%d m=%d", g.N(), g.M())
	}
}
