package dynmatch

import (
	"bytes"
	"errors"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
)

func applyEDCS(mt *EDCSWindowed, trace []update) {
	for _, t := range trace {
		if t.del {
			mt.Delete(t.u, t.v)
		} else {
			mt.Insert(t.u, t.v)
		}
	}
}

// TestEDCSWindowedValidThroughout checks validity of the maintained
// matching after every update of a mixed insert/delete trace.
func TestEDCSWindowedValidThroughout(t *testing.T) {
	const n = 80
	mt := NewEDCSWindowed(n, 0.3, 4)
	for i, u := range randomTrace(n, 1500, 17) {
		if u.del {
			mt.Delete(u.u, u.v)
		} else {
			mt.Insert(u.u, u.v)
		}
		if i%97 == 0 {
			if err := mt.Validate(); err != nil {
				t.Fatalf("update %d: %v", i, err)
			}
		}
	}
	if err := mt.Validate(); err != nil {
		t.Fatal(err)
	}
	if mt.Metrics().Recomputes == 0 {
		t.Fatal("no window recompute ever ran")
	}
	if mt.Size() == 0 {
		t.Fatal("matching stayed empty on a dense trace")
	}
}

// TestEDCSWindowedDeterministic pins the bit-identical-across-runs
// contract.
func TestEDCSWindowedDeterministic(t *testing.T) {
	const n = 60
	trace := randomTrace(n, 1000, 23)
	a := NewEDCSWindowed(n, 0.25, 9)
	b := NewEDCSWindowed(n, 0.25, 9)
	applyEDCS(a, trace)
	applyEDCS(b, trace)
	if !slices.Equal(a.Matching().Mates(), b.Matching().Mates()) {
		t.Fatal("two runs with one seed diverged")
	}
	c := NewEDCSWindowed(n, 0.25, 10)
	applyEDCS(c, trace)
	if a.Metrics() != b.Metrics() {
		t.Fatal("metrics diverged across identical runs")
	}
	_ = c // a different seed may or may not differ; only determinism is pinned
}

// TestEDCSWindowedCheckpointContinuation is the Maintainer checkpoint
// contract for the EDCS backend: restore from marshaled bytes, replay the
// tail, end bit-identical to the survivor.
func TestEDCSWindowedCheckpointContinuation(t *testing.T) {
	const n = 70
	trace := randomTrace(n, 1600, 31)
	for _, cut := range []int{0, 333, 800, 1599} {
		mt := NewEDCSWindowed(n, 0.3, 6)
		applyEDCS(mt, trace[:cut])
		b, err := mt.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		applyEDCS(mt, trace[cut:])

		restored, err := RestoreEDCSWindowed(b)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		applyEDCS(restored, trace[cut:])
		if !slices.Equal(mt.Matching().Mates(), restored.Matching().Mates()) {
			t.Fatalf("cut %d: restored replay diverged", cut)
		}
		if mt.Metrics() != restored.Metrics() {
			t.Fatalf("cut %d: metrics diverged", cut)
		}
	}
}

// TestEDCSWindowedCheckpointNegativePaths mirrors the Maintainer codec's
// error-path table for the EDCS checkpoint format.
func TestEDCSWindowedCheckpointNegativePaths(t *testing.T) {
	mt := NewEDCSWindowed(40, 0.3, 3)
	applyEDCS(mt, randomTrace(40, 700, 41))
	valid, err := mt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// Every strict prefix errors with a typed error.
	for cut := 0; cut < len(valid); cut++ {
		if _, err := RestoreEDCSWindowed(valid[:cut]); err == nil {
			t.Fatalf("prefix %d/%d decoded successfully", cut, len(valid))
		}
	}

	mutate := func(f func(b []byte)) []byte {
		b := bytes.Clone(valid)
		f(b)
		return b
	}
	cases := []struct {
		name        string
		in          []byte
		wantVersion bool
	}{
		{"bad magic", mutate(func(b []byte) { b[0] = 'Z' }), false},
		{"version mismatch", mutate(func(b []byte) { b[4] = edcsCheckpointVersion + 3 }), true},
		{"trailing bytes", append(bytes.Clone(valid), 1, 2, 3), false},
		{"eps out of range", mutate(func(b []byte) {
			// eps is the f64 at offset 5; zero it.
			for i := 5; i < 13; i++ {
				b[i] = 0
			}
		}), false},
	}
	for _, tc := range cases {
		_, err := RestoreEDCSWindowed(tc.in)
		if err == nil {
			t.Errorf("%s: accepted corrupt bytes", tc.name)
			continue
		}
		var ve *CheckpointVersionError
		if got := errors.As(err, &ve); got != tc.wantVersion {
			t.Errorf("%s: version-error = %v (%v), want %v", tc.name, got, err, tc.wantVersion)
		}
	}

	// Round trip of the valid bytes stays canonical.
	restored, err := RestoreEDCSWindowed(valid)
	if err != nil {
		t.Fatal(err)
	}
	again, err := restored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(valid, again) {
		t.Fatal("restore→marshal is not byte-identical")
	}
}

// TestEDCSWindowedGolden pins the complete state of an EDCSWindowed after a
// fixed diversity2 load, oblivious churn and a tail of deletions: the hash
// of its DMEW checkpoint bytes (graph slots, mates, window cursors, metrics)
// and its Metrics. Every recompute's snapshot, EDCS and matching feed into
// both, so a recompute that is not bit-identical fails here.
//
// Provenance of the goldens: recorded by running this same sequence against
// the recompute that built its snapshot through graph.Builder, ran
// edcs.SparsifyFor and matching.PhaseStructuredApprox on fresh arrays.
func TestEDCSWindowedGolden(t *testing.T) {
	g := gen.BoundedDiversityInstance(600, 2, 40, 21).G
	ups := BuildUpdates(g, 21)
	ups = append(ups, ObliviousChurn(g, 1500, 22)...)
	es := g.Edges()
	for i := 0; i < len(es); i += 3 {
		ups = append(ups, Update{U: es[i].U, V: es[i].V})
	}
	mt := NewEDCSWindowed(g.N(), 0.3, 5)
	for i, u := range ups {
		u.Apply(mt)
		if i%4099 == 0 {
			if err := mt.Validate(); err != nil {
				t.Fatalf("update %d: %v", i, err)
			}
		}
	}
	b, err := mt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	want := Metrics{Updates: 18790, UnitsTotal: 10115939, MaxUnitsUpdate: 17383, Recomputes: 874}
	const wantHash = 0xb8c22747e6064867
	if got := h.Sum64(); got != wantHash || mt.Metrics() != want {
		t.Errorf("checkpoint hash %#x metrics %+v, want %#x %+v", got, mt.Metrics(), uint64(wantHash), want)
	}
}

// TestEDCSRecomputeAllocations checks that a steady-state recompute recycles
// its snapshot, EDCS and engine scratch: on a 4000-vertex diversity2 graph
// (about 124k edges) one ForceRecompute after two warm-up recomputes makes
// at most 4 allocations of at most 16·n + 4 KiB bytes in total. The new
// output matching (a struct and a 4·n-byte mate array) is the only
// allocation the recompute needs.
func TestEDCSRecomputeAllocations(t *testing.T) {
	g := gen.BoundedDiversityInstance(4000, 2, 64, 1).G
	n := g.N()
	mt := NewEDCSWindowed(n, 0.3, 1)
	g.ForEachEdge(func(u, v int32) { mt.g.Insert(u, v) })
	mt.ForceRecompute()
	mt.ForceRecompute()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mt.ForceRecompute()
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if limit := uint64(16*n + 4096); allocs > 4 || bytes > limit {
		t.Fatalf("one recompute on m = %d made %d allocations of %d bytes, want ≤ 4 and ≤ %d", g.M(), allocs, bytes, limit)
	}
	t.Logf("m = %d: %d allocations, %d bytes", g.M(), allocs, bytes)
}

// TestEDCSRecomputeOutputsStayImmutable holds a Dynamic.Snapshot and the
// maintained matching across further updates and recomputes: the recompute
// recycles its own snapshot and EDCS arrays, but the graph a caller took
// and the matching a caller holds must not change.
func TestEDCSRecomputeOutputsStayImmutable(t *testing.T) {
	g := gen.BoundedDiversityInstance(500, 2, 24, 3).G
	ups := BuildUpdates(g, 3)
	mt := NewEDCSWindowed(g.N(), 0.3, 2)
	for _, u := range ups[:len(ups)/2] {
		u.Apply(mt)
	}
	snap := mt.Graph().Snapshot()
	snapEdges := snap.Edges()
	held := mt.Matching()
	heldMates := held.Mates()
	recomputes := mt.Metrics().Recomputes
	for _, u := range ups[len(ups)/2:] {
		u.Apply(mt)
	}
	for _, u := range ObliviousChurn(g, 300, 4) {
		u.Apply(mt)
	}
	mt.ForceRecompute()
	if mt.Metrics().Recomputes < recomputes+10 {
		t.Fatalf("only %d recomputes after the snapshot, want at least 10", mt.Metrics().Recomputes-recomputes)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(snap.Edges(), snapEdges) {
		t.Fatal("a held snapshot changed under later recomputes")
	}
	if !slices.Equal(held.Mates(), heldMates) || held == mt.Matching() {
		t.Fatal("a held matching changed, or was reused, by a later recompute")
	}
	if err := mt.Validate(); err != nil {
		t.Fatal(err)
	}
}
