package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzReadText feeds arbitrary bytes to the parser: it must never panic,
// and anything it accepts must be a valid graph that round-trips.
func FuzzReadText(f *testing.F) {
	f.Add("n 3 m 1\n0 2\n")
	f.Add("n 0 m 0\n")
	f.Add("# comment\nn 2 m 1\n0 1\n")
	f.Add("n 2 m 1\n0 5\n")
	f.Add("garbage")
	f.Add("n 2 m 2\n0 1\n0 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadText(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			t.Fatalf("cannot re-encode accepted graph: %v", err)
		}
		g2, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if g2.N() != g.N() || !slices.Equal(g2.Edges(), g.Edges()) {
			t.Fatal("round trip changed the graph")
		}
	})
}

// FuzzPackedArcRoundTrip decodes arbitrary bytes into an edge list and
// cross-checks the two construction paths — the Edge-struct Builder and the
// packed-arc fast path — which must produce the identical valid graph
// regardless of duplicates, orientation, or self-loops in the input.
func FuzzPackedArcRoundTrip(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 0, 2, 2, 3})
	f.Add([]byte{1})
	f.Add([]byte{9, 0, 1, 0, 1, 5, 5, 8, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int32(data[0]%32) + 1
		edges := make([]Edge, 0, len(data)/2)
		keys := make([]uint64, 0, len(data)/2)
		for i := 1; i+1 < len(data); i += 2 {
			u, v := int32(data[i])%n, int32(data[i+1])%n
			edges = append(edges, Edge{U: u, V: v})
			if u > v {
				u, v = v, u
			}
			keys = append(keys, uint64(uint32(u))<<32|uint64(uint32(v)))
		}
		want := FromEdges(int(n), edges)
		if err := want.Validate(); err != nil {
			t.Fatalf("FromEdges built invalid graph: %v", err)
		}
		got := FromPackedArcs(int(n), keys)
		if got.N() != want.N() || !slices.Equal(got.Edges(), want.Edges()) {
			t.Fatal("FromPackedArcs disagrees with FromEdges")
		}
	})
}

// FuzzChunkedBuild drives the chunked builder with arbitrary arcs — either
// orientation, duplicates, self-loops, isolated vertices — a fuzzed worker
// count, and independent chunk boundaries in the count and fill passes, and
// checks the result against the sort-based reference construction.
func FuzzChunkedBuild(f *testing.F) {
	f.Add([]byte{6, 0, 1, 1, 0, 2, 5, 5, 5, 3, 1}, uint8(0), uint8(1), uint8(2))
	f.Add([]byte{1}, uint8(3), uint8(0), uint8(0))
	f.Add([]byte{40, 7, 3, 3, 7, 39, 0, 12, 12, 0, 39, 7, 3, 20, 21}, uint8(3), uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, workers, countChunk, fillChunk uint8) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%64) + 1
		keys := make([]uint64, 0, len(data)/2)
		for i := 1; i+1 < len(data); i += 2 {
			keys = append(keys, uint64(int(data[i])%n)<<32|uint64(int(data[i+1])%n))
		}
		b := NewChunkedBuilder(n, ChunkedOptions{Workers: int(workers%8) + 1})
		feed := func(pass func([]uint64), size int) {
			for i := 0; i < len(keys); i += size {
				pass(keys[i:min(i+size, len(keys))])
			}
		}
		feed(b.CountChunk, int(countChunk%16)+1)
		b.FinishCounts()
		feed(b.FillChunk, int(fillChunk%16)+1)
		got := b.Build()
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		want := oldFromPackedArcs(n, keys)
		if !Equal(got, want) || got.MaxDegree() != want.MaxDegree() {
			t.Fatal("chunked build differs from the sort-based reference")
		}
	})
}

// FuzzDynamicSnapshot applies arbitrary insert/delete sequences to a
// Dynamic on at most 23 vertices (n = 0 and n = 1 included) and checks
// Snapshot against the Builder construction over ForEachEdge: Equal, valid
// and with the same maximum degree — mid-sequence, at the end, after every
// edge is deleted and after the edges come back. SnapshotInto must give
// the same graph over one recycled Static whose buffers first hold a
// larger graph, then shrink and grow again.
func FuzzDynamicSnapshot(f *testing.F) {
	f.Add([]byte{0}, uint8(7))
	f.Add([]byte{1, 0, 0, 0}, uint8(0))
	f.Add([]byte{6, 0, 1, 2, 0, 2, 3, 1, 1, 2, 0, 4, 5, 2, 0, 5, 0, 1, 3}, uint8(40))
	f.Add([]byte{9, 0, 0, 8, 4, 0, 7, 0, 8, 7, 1, 8, 0, 3, 3, 3}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, big uint8) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 24
		var rec Static
		prev := NewDynamic(int(big) % 32) // a near-clique fills rec first
		for u := int32(0); u < int32(prev.N()); u++ {
			for v := u + 2; v < int32(prev.N()); v++ {
				prev.Insert(u, v)
			}
		}
		prev.SnapshotInto(&rec)
		d := NewDynamic(n)
		check := func(stage string) {
			t.Helper()
			b := NewBuilder(n)
			d.ForEachEdge(b.AddEdge)
			want := b.Build()
			for _, got := range []*Static{d.Snapshot(), d.SnapshotInto(&rec)} {
				if err := got.Validate(); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				if !Equal(got, want) || got.MaxDegree() != want.MaxDegree() || got.M() != d.M() {
					t.Fatalf("%s: snapshot differs from the Builder construction", stage)
				}
			}
		}
		for i := 1; n > 0 && i+2 < len(data); i += 3 {
			u, v := int32(data[i+1])%int32(n), int32(data[i+2])%int32(n)
			if data[i]&1 == 0 {
				d.Insert(u, v)
			} else {
				d.Delete(u, v)
			}
			if data[i]&6 == 0 {
				check("mid-sequence")
			}
		}
		check("end")
		var es []Edge
		d.ForEachEdge(func(u, v int32) { es = append(es, Edge{U: u, V: v}) })
		for _, e := range es {
			d.Delete(e.U, e.V)
		}
		check("every edge deleted")
		for _, e := range es {
			d.Insert(e.V, e.U)
		}
		check("edges restored")
	})
}
