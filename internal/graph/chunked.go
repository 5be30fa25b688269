package graph

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/invariant"
	"repro/internal/params"
)

// Chunked CSR construction.
//
// Materializing both orientations of the whole edge list and sorting them
// would make a 10⁸-edge build peak at ~2× the edge list (3.2 GB) on top of
// the CSR itself. ChunkedBuilder is instead the classic two-pass
// count-then-fill construction: pass one tallies per-vertex degrees
// chunk by chunk, a prefix sum turns the tallies into CSR offsets, and pass
// two places each arc directly into a vertex's window — a bucket sort keyed
// on the owning endpoint, so no global sort of the edge list ever happens.
// Peak memory is the CSR plus a single producer chunk.
//
// Windows come out sorted without any comparison sort. The count pass also
// tallies, per vertex v, the arcs whose other endpoint is smaller than v;
// that splits v's window into a lower part (neighbors < v) and an upper part
// (neighbors > v). The fill pass writes each arc once, unsorted, into the
// upper part of its smaller endpoint. Build then transposes twice: scanning
// vertices in ascending order, it copies every upper part into the lower
// parts, which therefore come out sorted with duplicate arcs adjacent; then,
// scanning in descending order, it copies the lower parts back over the
// upper parts, skipping those duplicates, so the upper parts come out sorted
// and deduplicated. A forward compaction drops the lower parts' duplicates
// and the slack they leave. The build is O(n + arcs) with no comparisons.
//
// Parallelism is by vertex-range sharding: each worker scans the whole chunk
// (or the whole adjacency array, in Build's transposes) but writes only the
// windows of vertices inside its own contiguous vertex range. The per-worker
// "count arrays" are therefore disjoint partitions of the one shared counts
// array (merged for free by the shared prefix sum), writes never race, no
// atomics are needed, and the result is bit-identical for every worker
// count — fill order within an upper part may vary, but the transposes
// erase it.
type ChunkedBuilder struct {
	n       int
	workers int

	state chunkedState

	offsets []int64  // counting: degree tallies at [v+1]; after FinishCounts: CSR offsets
	win     []window // per-vertex window state
	adj     []int32
	errs    []error // per-shard mismatch reports, when workers > 1
}

// window is one vertex's build state. Its 8 bytes are all the builder keeps
// per vertex beyond the CSR, and both fields share a cache line, so a
// scattered write into the window misses once, not twice.
type window struct {
	lower  int32 // arcs whose other endpoint is smaller: the lower part's length
	cursor int32 // next write position, relative to the window's start
}

type chunkedState int

const (
	chunkedCounting chunkedState = iota
	chunkedFilling
	chunkedBuilt
)

// ChunkedOptions configures a ChunkedBuilder.
type ChunkedOptions struct {
	// Workers is the number of vertex-range shards used per chunk.
	// 0 selects GOMAXPROCS.
	Workers int
}

// NewChunkedBuilder returns a builder for a graph on n vertices that will be
// fed packed arcs in chunks: one or more CountChunk calls, FinishCounts, the
// same chunks again via FillChunk, then Build. The two passes must present
// the identical arc multiset (a deterministic generator replayed twice, or
// the same buffered chunks); FillChunk or Build panics when they disagree
// in any vertex's count of smaller or larger neighbors.
func NewChunkedBuilder(n int, opt ChunkedOptions) *ChunkedBuilder {
	if n < 0 {
		invariant.Violatef("graph: negative vertex count %d", n)
	}
	w := params.Workers(opt.Workers)
	if w > n && n > 0 {
		w = n
	}
	if w < 1 {
		w = 1
	}
	b := &ChunkedBuilder{
		n:       n,
		workers: w,
		offsets: make([]int64, n+1),
		win:     make([]window, n),
	}
	if w > 1 {
		b.errs = make([]error, w)
	}
	return b
}

// vertexRange returns worker w's contiguous vertex shard [lo, hi).
func (b *ChunkedBuilder) vertexRange(w int) (lo, hi int32) {
	per := (b.n + b.workers - 1) / b.workers
	lo = int32(w * per)
	hi = lo + int32(per)
	if hi > int32(b.n) {
		hi = int32(b.n)
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// validateChunk rejects out-of-range endpoints up front, sequentially: a
// rogue endpoint belongs to no worker's shard.
func (b *ChunkedBuilder) validateChunk(chunk []uint64) {
	n := uint64(b.n)
	for i, k := range chunk {
		if k>>32 >= n || k&0xffffffff >= n {
			invariant.Violatef("graph: chunk arc %d = (%d,%d) out of range [0,%d)",
				i, int32(k>>32), int32(uint32(k)), b.n)
		}
	}
}

// shard runs fn on every vertex shard [lo, hi), in parallel when the builder
// has more than one worker. fn reports a mismatch between the two passes by
// returning an error; shard waits for every shard and then raises the first
// error (lowest shard) on the caller's goroutine, where it can be recovered,
// instead of panicking inside a worker and crashing the process.
func (b *ChunkedBuilder) shard(fn func(lo, hi int32) error) {
	if b.workers == 1 {
		raiseMismatch(fn(0, int32(b.n)))
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		lo, hi := b.vertexRange(w)
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w int, lo, hi int32) {
			defer wg.Done()
			b.errs[w] = fn(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range b.errs {
		raiseMismatch(err)
	}
}

// raiseMismatch panics with err, a mismatch between the two passes, if any.
func raiseMismatch(err error) {
	if err != nil {
		invariant.Violatef("graph: %v (chunks differ between passes)", err)
	}
}

// CountChunk tallies the degrees contributed by a chunk of packed arcs
// (either orientation; self-loops are skipped, duplicates counted for now
// and removed at Build). Endpoints must lie in [0, n) — panics otherwise.
func (b *ChunkedBuilder) CountChunk(chunk []uint64) {
	if b.state != chunkedCounting {
		invariant.Violatef("graph: CountChunk after FinishCounts")
	}
	b.validateChunk(chunk)
	counts, win := b.offsets[1:], b.win // counts[v] tallies at offsets[v+1]
	b.shard(func(lo, hi int32) error {
		for _, k := range chunk {
			u, v := int32(k>>32), int32(uint32(k))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if u >= lo && u < hi {
				counts[u]++
			}
			if v >= lo && v < hi {
				counts[v]++
				win[v].lower++
			}
		}
		return nil
	})
}

// FinishCounts converts the degree tallies into CSR offsets and allocates
// the neighbor array — the point of peak memory (CSR + one chunk). A window
// holds at most 2³¹−1 arcs, duplicates included.
func (b *ChunkedBuilder) FinishCounts() {
	if b.state != chunkedCounting {
		invariant.Violatef("graph: FinishCounts called twice")
	}
	for v := 0; v < b.n; v++ {
		if deg := b.offsets[v+1]; deg > math.MaxInt32 {
			invariant.Violatef("graph: vertex %d receives %d arcs, more than a window holds", v, deg)
		}
		b.offsets[v+1] += b.offsets[v]
		// The fill pass writes each upper part from just past its lower part.
		b.win[v].cursor = b.win[v].lower
	}
	b.adj = make([]int32, b.offsets[b.n])
	b.state = chunkedFilling
}

// FillChunk writes each arc of a chunk, once, into the upper part of its
// smaller endpoint's window. The fill pass must replay the same arc
// multiset the count pass saw; a vertex whose upper part overflows here or
// is left short at Build panics.
func (b *ChunkedBuilder) FillChunk(chunk []uint64) {
	if b.state != chunkedFilling {
		invariant.Violatef("graph: FillChunk before FinishCounts or after Build")
	}
	b.validateChunk(chunk)
	offsets, win, adj := b.offsets, b.win, b.adj
	b.shard(func(lo, hi int32) error {
		for _, k := range chunk {
			u, v := int32(k>>32), int32(uint32(k))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if u < lo || u >= hi {
				continue
			}
			wu := &win[u]
			pos := offsets[u] + int64(wu.cursor)
			if pos >= offsets[u+1] {
				return fmt.Errorf("fill pass overflows the upper part of vertex %d", u)
			}
			adj[pos] = v
			wu.cursor++
		}
		return nil
	})
}

// Build sorts and deduplicates every window by the two transposes described
// above, compacts the arrays, and returns the finished graph. The output is
// bit-identical to FromPackedArcs over the concatenation of all chunks. The
// builder cannot be reused afterwards.
func (b *ChunkedBuilder) Build() *Static {
	if b.state != chunkedFilling {
		invariant.Violatef("graph: Build before FinishCounts or called twice")
	}
	b.state = chunkedBuilt

	// Every upper part must be exactly full: a short one means the fill pass
	// saw fewer arcs than the count pass.
	for v := 0; v < b.n; v++ {
		if deg := b.offsets[v+1] - b.offsets[v]; int64(b.win[v].cursor) != deg {
			invariant.Violatef("graph: fill pass underfills vertex %d: %d of %d (chunks differ between passes)",
				v, b.win[v].cursor-b.win[v].lower, deg-int64(b.win[v].lower))
		}
	}

	// Upper parts → lower parts, sources ascending: each lower part comes out
	// sorted with duplicates adjacent. The upper parts hold exactly as many
	// arcs as the lower parts were counted to hold, so if none overflows,
	// every one is exactly full. Only sources below hi can have a neighbor in
	// [lo, hi).
	offsets, win, adj := b.offsets, b.win, b.adj
	b.shard(func(lo, hi int32) error {
		for v := lo; v < hi; v++ {
			win[v].cursor = 0
		}
		for u := int32(0); u < hi; u++ {
			for _, v := range adj[offsets[u]+int64(win[u].lower) : offsets[u+1]] {
				if v < lo || v >= hi {
					continue
				}
				wv := &win[v]
				if wv.cursor == wv.lower {
					return fmt.Errorf("vertex %d has more smaller neighbors in the fill pass than in the count pass", v)
				}
				adj[offsets[v]+int64(wv.cursor)] = u
				wv.cursor++
			}
		}
		return nil
	})

	// Lower parts → upper parts, sources descending, skipping duplicates:
	// each upper part is rewritten from its window's end backwards, so it
	// comes out sorted, deduplicated and flush with the window's end, at
	// [offsets[u]+cursor, offsets[u+1]). It cannot overflow: an upper part
	// receives one entry per distinct arc it was filled with. Lower parts are
	// sorted, so a shard stops reading one at its first entry ≥ hi.
	b.shard(func(lo, hi int32) error {
		for u := lo; u < hi; u++ {
			win[u].cursor = int32(offsets[u+1] - offsets[u])
		}
		for v := int32(b.n) - 1; v > lo; v-- {
			prev := int32(-1)
			for _, u := range adj[offsets[v] : offsets[v]+int64(win[v].lower)] {
				if u >= hi {
					break
				}
				if u < lo || u == prev {
					continue
				}
				prev = u
				wu := &win[u]
				wu.cursor--
				adj[offsets[u]+int64(wu.cursor)] = v
			}
		}
		return nil
	})

	// Forward compaction: slide each window's lower part, dropping adjacent
	// duplicates, and then its upper part to their final position. Writes
	// never pass reads because new offsets are ≤ old offsets.
	maxDeg := int64(0)
	w := int64(0)
	for v := 0; v < b.n; v++ {
		start, end := offsets[v], offsets[v+1]
		offsets[v] = w
		prev := int32(-1)
		for _, u := range adj[start : start+int64(win[v].lower)] {
			if u != prev {
				adj[w] = u
				w++
				prev = u
			}
		}
		w += int64(copy(adj[w:], adj[start+int64(win[v].cursor):end]))
		maxDeg = max(maxDeg, w-offsets[v])
	}
	offsets[b.n] = w

	g := &Static{offsets: offsets, neighbors: adj[:w:w], maxDeg: int(maxDeg)}
	b.offsets, b.win, b.adj, b.errs = nil, nil, nil, nil
	return g
}

// FromStream builds a Static graph on n vertices from a chunk-emitting arc
// stream, without ever materializing the full edge list: the stream is
// invoked twice — once for the count pass and once for the fill pass — so it
// must be re-invokable and deterministic (emit the identical arc multiset on
// both invocations; chunk boundaries may differ). Peak memory is the CSR
// plus one chunk.
func FromStream(n int, opt ChunkedOptions, stream func(yield func(chunk []uint64))) *Static {
	b := NewChunkedBuilder(n, opt)
	stream(b.CountChunk)
	b.FinishCounts()
	stream(b.FillChunk)
	return b.Build()
}
