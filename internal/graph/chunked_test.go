package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"repro/internal/invariant"
)

// randomArcs returns m packed arcs over n vertices, including self-loops and
// duplicates (both orientations) to exercise the dedup path.
func randomArcs(n, m int, seed uint64) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 0xa5c))
	keys := make([]uint64, m)
	for i := range keys {
		u, v := uint64(rng.IntN(n)), uint64(rng.IntN(n))
		keys[i] = u<<32 | v
	}
	return keys
}

// oldFromPackedArcs is the sort-based reference construction: materialize
// both orientations, sort, compact, slice into CSR.
func oldFromPackedArcs(n int, keys []uint64) *Static {
	dir := make([]uint64, 0, 2*len(keys))
	for _, k := range keys {
		u, v := k>>32, k&0xffffffff
		if u == v {
			continue
		}
		dir = append(dir, k, v<<32|u)
	}
	slices.Sort(dir)
	dir = slices.Compact(dir)
	g := &Static{offsets: make([]int64, n+1), neighbors: make([]int32, len(dir))}
	for i, a := range dir {
		g.offsets[(a>>32)+1]++
		g.neighbors[i] = int32(a & 0xffffffff)
	}
	for v := 0; v < n; v++ {
		g.maxDeg = max(g.maxDeg, int(g.offsets[v+1]))
		g.offsets[v+1] += g.offsets[v]
	}
	return g
}

func TestFromPackedArcsMatchesReference(t *testing.T) {
	cases := []struct {
		n, m int
		seed uint64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 5, 1}, // self-loops only
		{10, 0, 2}, {10, 60, 3}, {100, 400, 4}, {257, 3000, 5},
	}
	for _, c := range cases {
		keys := randomArcs(c.n, c.m, c.seed)
		got := FromPackedArcs(c.n, keys)
		want := oldFromPackedArcs(c.n, keys)
		if !Equal(got, want) {
			t.Fatalf("n=%d m=%d: chunked construction differs from reference", c.n, c.m)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("n=%d m=%d: %v", c.n, c.m, err)
		}
		if got.MaxDegree() != want.MaxDegree() {
			t.Fatalf("n=%d m=%d: maxDeg %d, want %d", c.n, c.m, got.MaxDegree(), want.MaxDegree())
		}
	}
}

func TestChunkedBuilderMultiChunkMultiWorker(t *testing.T) {
	const n, m = 500, 5000
	keys := randomArcs(n, m, 9)
	want := oldFromPackedArcs(n, keys)

	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, chunkSize := range []int{1, 7, 100, m} {
			b := NewChunkedBuilder(n, ChunkedOptions{Workers: workers})
			for i := 0; i < len(keys); i += chunkSize {
				b.CountChunk(keys[i:min(i+chunkSize, len(keys))])
			}
			b.FinishCounts()
			// Fill with different chunk boundaries than the count pass.
			half := len(keys) / 2
			b.FillChunk(keys[:half])
			b.FillChunk(keys[half:])
			got := b.Build()
			if !Equal(got, want) {
				t.Fatalf("workers=%d chunk=%d: output differs", workers, chunkSize)
			}
		}
	}
}

func TestFromStream(t *testing.T) {
	const n, m = 300, 2500
	keys := randomArcs(n, m, 11)
	want := FromPackedArcs(n, keys)

	stream := func(yield func(chunk []uint64)) {
		const chunk = 64
		for i := 0; i < len(keys); i += chunk {
			yield(keys[i:min(i+chunk, len(keys))])
		}
	}
	got := FromStream(n, ChunkedOptions{Workers: 4}, stream)
	if !Equal(got, want) {
		t.Fatal("FromStream differs from FromPackedArcs on the same arcs")
	}
}

// TestChunkedBuilderMisuse runs every misuse case single-threaded and
// sharded: a mismatch found inside a worker goroutine must still panic on
// the caller's goroutine, where the deferred recover can observe it.
func TestChunkedBuilderMisuse(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testChunkedBuilderMisuse(t, ChunkedOptions{Workers: workers})
		})
	}
}

func testChunkedBuilderMisuse(t *testing.T, opt ChunkedOptions) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if _, ok := recover().(*invariant.Violation); !ok {
				t.Errorf("%s: expected an invariant violation", name)
			}
		}()
		fn()
	}
	// mismatch counts one arc multiset, fills another, and builds.
	mismatch := func(count, fill []uint64) func() {
		return func() {
			b := NewChunkedBuilder(4, opt)
			b.CountChunk(count)
			b.FinishCounts()
			b.FillChunk(fill)
			b.Build()
		}
	}

	expectPanic("negative n", func() { NewChunkedBuilder(-1, opt) })

	expectPanic("out-of-range endpoint", func() {
		b := NewChunkedBuilder(4, opt)
		b.CountChunk([]uint64{uint64(9)<<32 | 1})
	})

	expectPanic("count after finish", func() {
		b := NewChunkedBuilder(4, opt)
		b.FinishCounts()
		b.CountChunk([]uint64{1})
	})

	expectPanic("fill before finish", func() {
		b := NewChunkedBuilder(4, opt)
		b.FillChunk([]uint64{1})
	})

	expectPanic("build before finish", func() {
		b := NewChunkedBuilder(4, opt)
		b.Build()
	})

	expectPanic("fill overflow (extra arcs in fill pass)",
		mismatch([]uint64{pack(0, 1)}, []uint64{pack(0, 1), pack(0, 2)}))

	expectPanic("fill underflow (missing arcs in fill pass)",
		mismatch([]uint64{pack(0, 1), pack(2, 3)}, []uint64{pack(0, 1)}))

	// Every vertex has degree 1 in both passes, but the arcs differ.
	expectPanic("same degrees, different arcs",
		mismatch([]uint64{pack(0, 1), pack(2, 3)}, []uint64{pack(0, 3), pack(1, 2)}))

	// Vertex 0 is the smaller endpoint of two arcs in both passes, but the
	// larger endpoints differ: only the lower-part transpose can tell.
	expectPanic("same smaller endpoints, different larger endpoints",
		mismatch([]uint64{pack(0, 1), pack(0, 2)}, []uint64{pack(0, 1), pack(0, 1)}))

	expectPanic("double build", func() {
		b := NewChunkedBuilder(2, opt)
		b.CountChunk(nil)
		b.FinishCounts()
		b.Build()
		b.Build()
	})
}

func TestChunkedBuilderEmpty(t *testing.T) {
	g := FromStream(5, ChunkedOptions{}, func(yield func([]uint64)) {})
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("empty stream: got n=%d m=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFromPackedArcsAllocations pins the bytes one build allocates: the CSR
// offsets, the pre-dedup neighbor array (both orientations of every
// non-loop arc) and 8 bytes of per-vertex state, plus a little slack for the
// builder and graph headers and allocator rounding. A build that kept more
// per-vertex arrays, or copied the arcs, would exceed it.
func TestFromPackedArcsAllocations(t *testing.T) {
	const n, m = 20000, 200000
	keys := randomArcs(n, m, 21)
	arcs := 0
	for _, k := range keys {
		if k>>32 != k&0xffffffff {
			arcs++
		}
	}
	limit := uint64(8*(n+1) + 4*2*arcs + 8*n + 32<<10)

	var before, after runtime.MemStats
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		g := FromPackedArcs(n, keys)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(g)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > limit {
		t.Fatalf("FromPackedArcs allocated %d B, limit %d B", best, limit)
	}
	t.Logf("allocated %d B of a %d B limit", best, limit)
}
