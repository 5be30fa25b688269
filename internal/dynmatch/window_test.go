package dynmatch

import (
	"hash/fnv"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
)

// mostlyIsolatedEdges returns k edges on n vertices: a 48-vertex clique,
// whose degrees exceed 2Δ at ε = 0.5 so that sampling flips coins, plus
// uniformly random edges. For n ≫ k almost every vertex stays isolated.
func mostlyIsolatedEdges(n, k int, seed uint64) [][2]int32 {
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	var es [][2]int32
	core := make([]int32, 48)
	for i := range core {
		core[i] = int32(rng.IntN(n))
	}
	for i := range core {
		for j := i + 1; j < len(core); j++ {
			if core[i] != core[j] {
				es = append(es, [2]int32{core[i], core[j]})
			}
		}
	}
	for len(es) < k {
		u, v := int32(rng.IntN(n)), int32(rng.IntN(n))
		if u != v {
			es = append(es, [2]int32{u, v})
		}
	}
	return es
}

// hashMates is FNV-64a over the little-endian mate array.
func hashMates(mates []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, w := range mates {
		b[0], b[1], b[2], b[3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// nonIsolated counts the vertices of positive degree in mt's graph.
func nonIsolated(mt *Maintainer) int {
	c := 0
	for v := 0; v < mt.N(); v++ {
		if mt.g.Degree(int32(v)) > 0 {
			c++
		}
	}
	return c
}

// checkRecycleLists pins the invariants window recycling relies on: every
// vertex matched in either mate array is on that array's matched list, and
// every non-empty sampled adjacency row is on the touched list. A vertex
// missing from a list would keep a stale mate or row into the next run.
func checkRecycleLists(t *testing.T, w *window) {
	t.Helper()
	onList := func(list []int32) map[int32]bool {
		s := make(map[int32]bool, len(list))
		for _, v := range list {
			s[v] = true
		}
		return s
	}
	for _, c := range []struct {
		name  string
		mates []int32
		list  []int32
	}{{"run", w.run.mate, w.run.matched}, {"output", w.outMates, w.outMatched}} {
		listed := onList(c.list)
		for v, m := range c.mates {
			if m >= 0 && !listed[int32(v)] {
				t.Fatalf("%s mate array matches %d-%d, but %d is not on its matched list", c.name, v, m, v)
			}
		}
	}
	touched := onList(w.run.touched)
	for v, row := range w.run.adj {
		if len(row) > 0 && !touched[int32(v)] {
			t.Fatalf("sampled adjacency of %d is non-empty but not on the touched list", v)
		}
	}
}

// TestRecomputeSkipsIsolatedVertices pins that moving the recompute's
// cursor over the non-isolated bitset changes no coin flip: on a graph
// where almost every vertex is isolated, one ForceRecompute of each
// maintainer yields exactly the mates of the implementation that visited
// every vertex in every pass, at a fraction of the units.
//
// Provenance of the goldens: the hashes and unit counts were recorded by
// running this same setup against the previous staticRun, which advanced
// its cursor by one vertex at a time and charged a unit per isolated
// vertex.
func TestRecomputeSkipsIsolatedVertices(t *testing.T) {
	const (
		n = 1 << 16
		k = 2048
	)
	opt := Options{Beta: 2, Eps: 0.5}
	es := mostlyIsolatedEdges(n, k, 7)
	cases := []struct {
		name      string
		w         func() *window
		wantHash  uint64
		wantSize  int
		prevUnits int64
	}{
		{"maintainer", func() *window {
			mt := New(n, opt, 42)
			for _, e := range es {
				mt.g.Insert(e[0], e[1]) // load without advancing the run
			}
			return &mt.window
		}, 0xb7364af80f3c4a7e, 916, 199425},
		{"oblivious", func() *window {
			mt := NewOblivious(n, opt, 42)
			for _, e := range es {
				if mt.g.Insert(e[0], e[1]) {
					mt.remark(e[0])
					mt.remark(e[1])
				}
			}
			return &mt.window
		}, 0xd84f0342b36f08b1, 916, 199798},
	}
	for _, c := range cases {
		w := c.w()
		for !w.run.step(1 << 20) {
		}
		units := w.run.units
		w.ForceRecompute()
		if got := hashMates(w.Matching().Mates()); got != c.wantHash || w.Size() != c.wantSize {
			t.Errorf("%s: mates hash %#x size %d, want %#x size %d", c.name, got, w.Size(), c.wantHash, c.wantSize)
		}
		// The graph has n/64 = 1024 bitset words and about 1,900
		// non-isolated vertices; the per-vertex walk cost about 3n.
		if units*8 > c.prevUnits {
			t.Errorf("%s: recompute cost %d units, want under 1/8 of the per-vertex walk's %d", c.name, units, c.prevUnits)
		}
	}
}

// TestRecomputeScalesWithNonIsolated checks the n′ cost model on n = 2²⁰
// with k ≪ n edges: one full recompute costs at most c·(n′·Δ + n/64)
// units with c = 4, counted exactly. Each of the at most 2 + sweeps passes
// scans every bitset word once and every non-isolated vertex's word once
// more, and sampling, greedy and the short DFSs of a sparse graph cost a
// few units per sampled edge. A walk over all n vertices spends n = 2²⁰
// units on the sample pass alone, more than twice this bound.
func TestRecomputeScalesWithNonIsolated(t *testing.T) {
	const (
		n = 1 << 20
		k = 4096
	)
	mt := New(n, Options{Beta: 2, Eps: 0.5}, 3)
	for _, e := range mostlyIsolatedEdges(n, k, 11) {
		mt.g.Insert(e[0], e[1])
	}
	for !mt.run.step(1 << 20) {
	}
	nPrime := int64(nonIsolated(mt))
	bound := 4 * (nPrime*int64(mt.delta) + n/64)
	if mt.run.units > bound {
		t.Fatalf("recompute cost %d units, want ≤ 4·(n′·Δ + n/64) = %d (n′ = %d, Δ = %d)",
			mt.run.units, bound, nPrime, mt.delta)
	}
	t.Logf("n′ = %d, Δ = %d: %d units, bound %d", nPrime, mt.delta, mt.run.units, bound)
}

// TestWindowSwapsAllocateNothing checks that steady-state window swaps
// recycle the mate arrays and sampled rows instead of allocating: ten
// swaps driven by edge churn on n = 2²⁰ allocate less than one n-entry
// mate array in total.
func TestWindowSwapsAllocateNothing(t *testing.T) {
	const (
		n = 1 << 20
		k = 4096
	)
	mt := New(n, Options{Beta: 2, Eps: 0.5}, 5)
	es := mostlyIsolatedEdges(n, k, 13)
	for _, e := range es {
		mt.Insert(e[0], e[1])
	}
	// Deleting and re-inserting a live edge reuses its adjacency slots and
	// map entries, so the churn itself allocates nothing once warm.
	i := 0
	churn := func(swaps int64) {
		for target := mt.metrics.Recomputes + swaps; mt.metrics.Recomputes < target; i++ {
			e := es[i%len(es)]
			mt.Delete(e[0], e[1])
			mt.Insert(e[0], e[1])
		}
	}
	churn(3) // warm every recycled array up to its steady-state capacity
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	churn(10)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4*n {
		t.Fatalf("ten window swaps allocated %d bytes, want < %d (one mate array)", got, 4*n)
	}
	checkRecycleLists(t, &mt.window)
}

// TestRestoreMidRunRecyclesExactly restores a sparse n = 2¹⁶ maintainer in
// the middle of a recompute, through the byte codec, and continues across
// several window swaps. The restored maintainer rebuilds the graph's
// non-isolated bitset and the touched and matched lists from the
// checkpoint; the continuation must stay bit-identical to the survivor.
func TestRestoreMidRunRecyclesExactly(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewPCG(17, 17))
	es := mostlyIsolatedEdges(n, 3000, 17)
	trace := make([]update, 0, 8000)
	for _, e := range es {
		trace = append(trace, update{e[0], e[1], false})
	}
	for len(trace) < cap(trace) {
		e := es[rng.IntN(len(es))]
		trace = append(trace, update{e[0], e[1], rng.IntN(2) == 0})
	}
	for _, cut := range []int{1500, 3001, 5555} {
		mt := New(n, Options{Beta: 2, Eps: 0.5}, 23)
		apply(mt, trace[:cut])
		if mt.run.phase == phaseSample && mt.run.cursor == 0 {
			t.Fatalf("cut %d: the run has not started, pick a cut inside a run", cut)
		}
		recomputes := mt.metrics.Recomputes
		b, err := mt.Snapshot().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		c, err := UnmarshalCheckpoint(b)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.g.Validate(); err != nil {
			t.Fatalf("cut %d: restored graph: %v", cut, err)
		}
		checkRecycleLists(t, &restored.window)
		apply(mt, trace[cut:])
		apply(restored, trace[cut:])
		if mt.metrics.Recomputes < recomputes+3 {
			t.Fatalf("cut %d: only %d swaps after the cut, want ≥ 3", cut, mt.metrics.Recomputes-recomputes)
		}
		checkRecycleLists(t, &restored.window)
		if !slices.Equal(mt.Matching().Mates(), restored.Matching().Mates()) {
			t.Fatalf("cut %d: restored continuation diverged: size %d vs %d", cut, restored.Size(), mt.Size())
		}
		if mt.Budget() != restored.Budget() || mt.Metrics() != restored.Metrics() {
			t.Fatalf("cut %d: budget %d/%d or metrics diverged:\nsurvivor: %+v\nrestored: %+v",
				cut, mt.Budget(), restored.Budget(), mt.Metrics(), restored.Metrics())
		}
		if err := restored.Validate(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
	}
}

// TestRecycleListsHoldUnderChurn checks the recycling invariants after
// every update of random churn, for both budgeted maintainers, on a dense
// small graph where augmenting paths, deletions of matched edges and
// window swaps are all frequent.
func TestRecycleListsHoldUnderChurn(t *testing.T) {
	const n = 40
	trace := randomTrace(n, 4000, 29)
	mt := New(n, Options{Beta: 2, Eps: 0.25}, 31)
	ob := NewOblivious(n, Options{Beta: 2, Eps: 0.25}, 31)
	for i, u := range trace {
		if u.del {
			mt.Delete(u.u, u.v)
			ob.Delete(u.u, u.v)
		} else {
			mt.Insert(u.u, u.v)
			ob.Insert(u.u, u.v)
		}
		checkRecycleLists(t, &mt.window)
		checkRecycleLists(t, &ob.window)
		if i%97 == 0 {
			if err := mt.Validate(); err != nil {
				t.Fatalf("update %d: %v", i, err)
			}
		}
	}
	if mt.metrics.Recomputes < 10 || ob.metrics.Recomputes < 10 {
		t.Fatalf("only %d / %d swaps; the trace does not exercise recycling", mt.metrics.Recomputes, ob.metrics.Recomputes)
	}
}

// TestBitsetScanStaysWithinBudget checks that the cursor's bitset scan
// stops when the update's budget runs out and resumes where it stopped:
// with a single edge at the top of n = 2²⁰, a five-unit step scans five
// words and leaves the cursor at the first vertex of the sixth.
func TestBitsetScanStaysWithinBudget(t *testing.T) {
	const n = 1 << 20
	mt := New(n, Options{Beta: 2, Eps: 0.5}, 1)
	mt.g.Insert(n-2, n-1)
	r := mt.run
	for i := 1; i <= 3; i++ {
		if r.step(5) {
			t.Fatal("run finished early")
		}
		if r.units != int64(5*i) || r.cursor != int32(5*64*i) || r.phase != phaseSample {
			t.Fatalf("after %d five-unit steps: units %d, cursor %d, phase %d; want %d, %d, %d",
				i, r.units, r.cursor, r.phase, 5*i, 5*64*i, phaseSample)
		}
	}
	mt.ForceRecompute()
	if mt.Size() != 1 {
		t.Fatalf("matching size %d, want 1", mt.Size())
	}
}
