package core

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/arcs"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/params"
	"repro/internal/sparsearray"
)

// Method selects the per-vertex random sampling implementation.
type Method int

const (
	// MethodReadOnly emulates Fisher–Yates swaps over the read-only
	// adjacency arrays through a constant-time-resettable positions array
	// (the pos_v construction of Section 3.1). Deterministic O(Δ) time per
	// vertex, never writes to or copies the adjacency arrays.
	MethodReadOnly Method = iota
	// MethodResample draws random neighbor indices and rejects repeats
	// (the "straightforward randomized approach" of Section 3.1).
	// Expected O(Δ) per vertex when combined with the mark-all tweak.
	MethodResample
)

func (m Method) String() string {
	switch m {
	case MethodReadOnly:
		return "readonly"
	case MethodResample:
		return "resample"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Options configures the sparsifier construction.
type Options struct {
	// Delta is the number of incident edges each vertex marks.
	Delta int
	// MarkAllThreshold: vertices with degree at most this mark their whole
	// neighborhood. Zero means the Section 3.1 default of 2·Delta, which
	// keeps the resample method in expected O(Δ) per vertex and inflates the
	// size and arboricity bounds by at most a factor of 2.
	MarkAllThreshold int
	// Method selects the sampling implementation. Default MethodReadOnly.
	Method Method
	// Workers shards the vertex set over this many goroutines. Zero means
	// GOMAXPROCS; 1 forces sequential construction (used by the
	// deterministic-runtime experiments).
	//
	// The output is fully deterministic for a fixed seed and INVARIANT to
	// the worker count: RNG streams are keyed by fixed markBlockSize vertex
	// blocks (not by worker ranges or goroutine scheduling), and workers are
	// assigned whole blocks, so every worker count marks the same edges.
	Workers int
}

// withDefaults delegates the zero-value resolution to internal/params, the
// single source of truth for the theorem-derived defaults.
func (o Options) withDefaults() Options {
	r := params.Sequential{
		Delta:            o.Delta,
		MarkAllThreshold: o.MarkAllThreshold,
		Workers:          o.Workers,
	}.Resolve()
	o.MarkAllThreshold = r.MarkAllThreshold
	o.Workers = r.Workers
	return o
}

// Sparsify builds the random matching sparsifier G_Δ of g with the default
// options: each vertex marks delta random incident edges (its entire
// neighborhood if deg ≤ 2·delta), and the sparsifier is the union of the
// marked edges. The guarantee of Theorem 2.1 holds when
// delta ≥ DeltaFor(β(g), ε).
func Sparsify(g *graph.Static, delta int, seed uint64) *graph.Static {
	return SparsifyOpts(g, Options{Delta: delta}, seed)
}

// markBlockSize is the vertex-block granularity of the parallel marking:
// each block of markBlockSize consecutive vertices draws from its own RNG
// stream keyed by the block start, and workers are assigned whole blocks.
// Because the streams depend only on (seed, block) — never on the worker
// count or goroutine scheduling — the marked edge set is bit-identical for
// every worker count.
const markBlockSize = 1024

// SparsifyOpts builds G_Δ with explicit options.
//
// Marked edges are accumulated directly as packed arcs (internal/arcs) in
// per-worker pooled buffers and handed to graph.FromPackedArcs, whose
// transpose-based build is O(n + arcs) with no comparison sort and never
// materializes an Edge-struct list.
func SparsifyOpts(g *graph.Static, opt Options, seed uint64) *graph.Static {
	if opt.Delta < 1 {
		invariant.Violatef("core: Delta must be >= 1, got %d", opt.Delta)
	}
	opt = opt.withDefaults()
	n := g.N()
	if opt.Workers <= 1 || n < markBlockSize {
		buf := arcs.Get()
		markRange(g, 0, int32(n), opt, seed, buf)
		gd := graph.FromPackedArcs(n, buf.Keys())
		buf.Release()
		return gd
	}
	// Assign each worker a contiguous run of whole blocks, so concatenating
	// the per-worker buffers in worker order preserves vertex order and the
	// block-keyed streams are untouched by the worker count.
	workers := opt.Workers
	blocks := (n + markBlockSize - 1) / markBlockSize
	chunk := ((blocks + workers - 1) / workers) * markBlockSize
	parts := make([]*arcs.Buffer, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := int32(w * chunk)
		hi := int32(min((w+1)*chunk, n))
		if lo >= hi {
			continue
		}
		parts[w] = arcs.Get()
		wg.Add(1)
		go func(lo, hi int32, buf *arcs.Buffer) {
			defer wg.Done()
			markRange(g, lo, hi, opt, seed, buf)
		}(lo, hi, parts[w])
	}
	wg.Wait()
	keys := arcs.Concat(parts...)
	for _, p := range parts {
		if p != nil {
			p.Release()
		}
	}
	return graph.FromPackedArcs(n, keys)
}

// rngStream derives the PCG stream id of the block starting at vertex lo:
// a fixed tag in the high bits (so block streams are disjoint from other
// derived stream families) and the block start in the low 32 bits.
func rngStream(lo int32) uint64 {
	return 0x5bf0<<32 | uint64(uint32(lo))
}

// markRange marks edges for vertices in [lo, hi), appending them to buf as
// packed arcs. Each markBlockSize-aligned block gets an independent RNG
// stream keyed by (seed, block start), so the random choices made "due to"
// different vertices are independent — the property the proof of
// Theorem 2.1 relies on (Observation 2.9) — and independent of how blocks
// map to workers. The construction always calls it with a block-aligned lo;
// an unaligned lo keys its leading partial block by lo itself (used by the
// per-vertex distribution tests).
func markRange(g *graph.Static, lo, hi int32, opt Options, seed uint64, buf *arcs.Buffer) {
	var rng *rand.Rand
	buf.Grow(int(hi-lo) * min(opt.Delta, 8))
	var pos *sparsearray.Array[int32]
	if opt.Method == MethodReadOnly {
		pos = sparsearray.New[int32](g.MaxDegree(), -1)
	}
	var seen map[int]bool
	if opt.Method == MethodResample {
		seen = make(map[int]bool, opt.Delta)
	}
	for v := lo; v < hi; v++ {
		if v == lo || v%markBlockSize == 0 {
			rng = rand.New(rand.NewPCG(seed, rngStream(v)))
		}
		d := g.Degree(v)
		if d == 0 {
			continue
		}
		if d <= opt.MarkAllThreshold {
			// Low-degree tweak: mark the entire neighborhood.
			for _, w := range g.Neighbors(v) {
				buf.Add(v, w)
			}
			continue
		}
		switch opt.Method {
		case MethodReadOnly:
			appendReadOnlyMarks(buf, g, v, opt.Delta, pos, rng)
		case MethodResample:
			clear(seen)
			for len(seen) < opt.Delta {
				i := rng.IntN(d)
				if seen[i] {
					continue
				}
				seen[i] = true
				buf.Add(v, g.Neighbor(v, i))
			}
		default:
			invariant.Violatef("core: unknown method %v", opt.Method)
		}
	}
}

// appendReadOnlyMarks samples delta distinct neighbor indices of v without
// replacement in deterministic O(delta) time, emulating Fisher–Yates swaps
// on the read-only adjacency array via the positions array pos:
// pos[i] not live means "entry i has not moved", i.e. it still holds the
// i-th neighbor; otherwise pos[i] is the index of the neighbor currently
// (virtually) stored at slot i. Resetting pos between vertices is O(1).
func appendReadOnlyMarks(buf *arcs.Buffer, g *graph.Static, v int32, delta int, pos *sparsearray.Array[int32], rng *rand.Rand) {
	pos.Reset()
	d := g.Degree(v)
	k := min(delta, d)
	slot := func(i int32) int32 {
		if pos.Live(int(i)) {
			return pos.Get(int(i))
		}
		return i
	}
	for t := 0; t < k; t++ {
		tail := int32(d - t - 1)
		i := int32(rng.IntN(d - t))
		pi := slot(i)
		buf.Add(v, g.Neighbor(v, int(pi)))
		// Virtual swap: slot i takes the tail's entry; the tail slot takes
		// pi so already-sampled entries stay out of the live prefix.
		pos.Set(int(i), slot(tail))
		pos.Set(int(tail), pi)
	}
}

// SizeUpperBound returns the Observation 2.10 bound 2·mcm·(Δ+β) on the
// number of edges of G_Δ, given the MCM size of the *original* graph.
func SizeUpperBound(mcm, delta, beta int) int {
	return 2 * mcm * (delta + beta)
}

// ArboricityUpperBound returns the Observation 2.12 bound on the arboricity
// of G_Δ for the given options (2Δ, or 2·MarkAllThreshold when the low-degree
// tweak marks more than Δ edges).
func ArboricityUpperBound(opt Options) int {
	opt = opt.withDefaults()
	return 2 * max(opt.Delta, opt.MarkAllThreshold)
}
