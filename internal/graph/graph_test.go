package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func triangle() *Static {
	return FromEdges(3, []Edge{{0, 1}, {1, 2}, {0, 2}})
}

func TestEdgeCanonical(t *testing.T) {
	if got := (Edge{5, 2}).Canonical(); got != (Edge{2, 5}) {
		t.Errorf("Canonical = %v, want {2 5}", got)
	}
	if got := (Edge{2, 5}).Canonical(); got != (Edge{2, 5}) {
		t.Errorf("Canonical = %v, want {2 5}", got)
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{3, 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Errorf("Other: got %d,%d", e.Other(3), e.Other(7))
	}
	defer func() {
		if recover() == nil {
			t.Error("Other on non-endpoint did not panic")
		}
	}()
	e.Other(1)
}

func TestBuilderBasics(t *testing.T) {
	g := triangle()
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("N,M = %d,%d want 3,3", g.N(), g.M())
	}
	for v := int32(0); v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("Degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d, want 2", g.MaxDegree())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderDedupeAndLoops(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 0}, {0, 1}, {2, 2}})
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (dupes and loops dropped)", g.M())
	}
	if g.Degree(2) != 0 {
		t.Errorf("Degree(2) = %d, want 0", g.Degree(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestHasEdge(t *testing.T) {
	g := triangle()
	for _, tc := range []struct {
		u, v int32
		want bool
	}{{0, 1, true}, {1, 0, true}, {0, 2, true}, {1, 2, true}, {0, 0, false}} {
		if got := g.HasEdge(tc.u, tc.v); got != tc.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", tc.u, tc.v, got, tc.want)
		}
	}
	g2 := FromEdges(4, []Edge{{0, 1}})
	if g2.HasEdge(2, 3) {
		t.Error("HasEdge(2,3) = true on missing edge")
	}
}

func TestEdgesSortedCanonical(t *testing.T) {
	g := FromEdges(5, []Edge{{4, 0}, {3, 1}, {2, 0}})
	want := []Edge{{0, 2}, {0, 4}, {1, 3}}
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Errorf("Edges = %v, want %v", got, want)
	}
}

func TestNeighborProbe(t *testing.T) {
	g := FromEdges(4, []Edge{{1, 0}, {1, 3}, {1, 2}})
	if g.Degree(1) != 3 {
		t.Fatalf("Degree(1) = %d", g.Degree(1))
	}
	got := []int32{g.Neighbor(1, 0), g.Neighbor(1, 1), g.Neighbor(1, 2)}
	if !slices.Equal(got, []int32{0, 2, 3}) {
		t.Errorf("Neighbor probes = %v, want sorted [0 2 3]", got)
	}
}

func TestNonIsolatedAndAvgDegree(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}})
	if g.NonIsolated() != 2 {
		t.Errorf("NonIsolated = %d, want 2", g.NonIsolated())
	}
	if got := g.AvgDegree(); got != 0.4 {
		t.Errorf("AvgDegree = %v, want 0.4", got)
	}
	if Empty(0).AvgDegree() != 0 {
		t.Error("AvgDegree of empty graph != 0")
	}
}

func TestEmpty(t *testing.T) {
	g := Empty(7)
	if g.N() != 7 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Errorf("Empty: N=%d M=%d maxDeg=%d", g.N(), g.M(), g.MaxDegree())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicBasics(t *testing.T) {
	d := NewDynamic(4)
	if !d.Insert(0, 1) || !d.Insert(1, 2) {
		t.Fatal("Insert returned false on new edges")
	}
	if d.Insert(0, 1) || d.Insert(1, 0) {
		t.Error("Insert returned true on duplicate")
	}
	if d.Insert(2, 2) {
		t.Error("Insert returned true on self-loop")
	}
	if d.M() != 2 || d.Degree(1) != 2 {
		t.Errorf("M=%d Degree(1)=%d, want 2,2", d.M(), d.Degree(1))
	}
	if !d.Delete(0, 1) {
		t.Error("Delete returned false on present edge")
	}
	if d.Delete(0, 1) {
		t.Error("Delete returned true on absent edge")
	}
	if d.M() != 1 || d.HasEdge(0, 1) {
		t.Errorf("after delete: M=%d HasEdge=%v", d.M(), d.HasEdge(0, 1))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicSnapshotRoundTrip(t *testing.T) {
	g := triangle()
	d := DynamicFrom(g)
	s := d.Snapshot()
	if !slices.Equal(s.Edges(), g.Edges()) {
		t.Errorf("Snapshot edges %v != original %v", s.Edges(), g.Edges())
	}
}

func TestDynamicRandomNeighbor(t *testing.T) {
	d := NewDynamic(5)
	rng := rand.New(rand.NewPCG(1, 2))
	if d.RandomNeighbor(0, rng) != -1 {
		t.Error("RandomNeighbor of isolated vertex != -1")
	}
	d.Insert(0, 1)
	d.Insert(0, 2)
	d.Insert(0, 3)
	seen := map[int32]bool{}
	for i := 0; i < 200; i++ {
		w := d.RandomNeighbor(0, rng)
		if w < 1 || w > 3 {
			t.Fatalf("RandomNeighbor = %d out of range", w)
		}
		seen[w] = true
	}
	if len(seen) != 3 {
		t.Errorf("RandomNeighbor covered %d of 3 neighbors in 200 draws", len(seen))
	}
}

// TestDynamicQuickAgainstReference replays random insert/delete sequences
// against a map-based reference and validates internal invariants.
func TestDynamicQuickAgainstReference(t *testing.T) {
	f := func(seed uint64, nOps uint16) bool {
		const n = 12
		rng := rand.New(rand.NewPCG(seed, 7))
		d := NewDynamic(n)
		ref := make(map[Edge]bool)
		for i := 0; i < int(nOps%500)+1; i++ {
			u, v := int32(rng.IntN(n)), int32(rng.IntN(n))
			e := Edge{u, v}.Canonical()
			if rng.IntN(2) == 0 {
				want := u != v && !ref[e]
				if d.Insert(u, v) != want {
					return false
				}
				if want {
					ref[e] = true
				}
			} else {
				want := ref[e]
				if d.Delete(u, v) != want {
					return false
				}
				delete(ref, e)
			}
		}
		if d.M() != len(ref) {
			return false
		}
		for e := range ref {
			if !d.HasEdge(e.U, e.V) {
				return false
			}
		}
		return d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInduced(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}) // C5
	sub, orig := Induced(g, []int32{0, 1, 2, 2})
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("Induced: N=%d M=%d, want 3,2", sub.N(), sub.M())
	}
	if !slices.Equal(orig, []int32{0, 1, 2}) {
		t.Errorf("orig = %v", orig)
	}
}

func TestInducedInPlace(t *testing.T) {
	g := triangle()
	sub := InducedInPlace(g, []bool{true, true, false})
	if sub.N() != 3 || sub.M() != 1 || !sub.HasEdge(0, 1) {
		t.Errorf("InducedInPlace: N=%d M=%d", sub.N(), sub.M())
	}
}

func TestUnion(t *testing.T) {
	a := FromEdges(3, []Edge{{0, 1}})
	b := FromEdges(4, []Edge{{2, 3}, {0, 1}})
	u := Union(a, b)
	if u.N() != 4 || u.M() != 2 {
		t.Errorf("Union: N=%d M=%d, want 4,2", u.N(), u.M())
	}
}

func TestConnectedComponents(t *testing.T) {
	g := FromEdges(6, []Edge{{0, 1}, {1, 2}, {3, 4}})
	comp, count := ConnectedComponents(g)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("vertices 0,1,2 not in one component")
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Error("vertices 3,4 mis-assigned")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Error("isolated vertex shares a component")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := triangle()
	g.neighbors[0] = 99 // out of range
	if g.Validate() == nil {
		t.Error("Validate missed out-of-range neighbor")
	}
}

func TestDynamicNeighborsAndForEachEdge(t *testing.T) {
	d := NewDynamic(4)
	d.Insert(0, 1)
	d.Insert(0, 2)
	nb := d.Neighbors(0)
	if len(nb) != 2 {
		t.Fatalf("Neighbors(0) = %v", nb)
	}
	count := 0
	d.ForEachEdge(func(u, v int32) {
		count++
		if u >= v {
			t.Errorf("ForEachEdge order violated: (%d,%d)", u, v)
		}
	})
	if count != 2 {
		t.Errorf("ForEachEdge visited %d edges, want 2", count)
	}
}

// TestDynamicNextNonIsolated checks the bounded bitset scan against a
// brute-force walk over the degrees, on a vertex count that is not a
// multiple of 64, after random churn and after an adjacency round trip.
func TestDynamicNextNonIsolated(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewPCG(3, 9))
	d := NewDynamic(n)
	for i := 0; i < 400; i++ {
		u, v := int32(rng.IntN(n/3)), int32(rng.IntN(n))
		if rng.IntN(3) == 0 {
			d.Delete(u, v)
		} else {
			d.Insert(u, v)
		}
	}
	adj := make([][]int32, n)
	for v := range adj {
		adj[v] = d.Neighbors(int32(v))
	}
	restored, err := DynamicFromAdjacency(adj)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Dynamic{d, restored} {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		for v := int32(0); v <= n; v++ {
			want := v
			for int(want) < n && g.Degree(want) == 0 {
				want++
			}
			for _, maxWords := range []int{1, 2, n} {
				u, words, found := g.NextNonIsolated(v, maxWords)
				if words > maxWords || (int(v) < n && words == 0) {
					t.Fatalf("NextNonIsolated(%d, %d) scanned %d words", v, maxWords, words)
				}
				switch {
				case found && u != want:
					t.Fatalf("NextNonIsolated(%d, %d) = %d, want %d", v, maxWords, u, want)
				case !found && int(want) < n && (u > want || u%64 != 0 || int(u)/64 != int(v)/64+words):
					t.Fatalf("NextNonIsolated(%d, %d) stopped at %d after %d words, next is %d", v, maxWords, u, words, want)
				case !found && int(want) == n && int(u) != n && u%64 != 0:
					t.Fatalf("NextNonIsolated(%d, %d) stopped mid-word at %d", v, maxWords, u)
				}
			}
		}
	}
}
