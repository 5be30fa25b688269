package dynmatch

import (
	"math/rand/v2"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/params"
)

// Options configures a Maintainer. Zero-valued fields are resolved from
// (Beta, Eps) by internal/params (params.Dynamic.ResolveFor), the single
// source of the Theorem 3.5 defaults.
type Options struct {
	// Beta is the (assumed) neighborhood independence bound of every graph
	// in the update sequence.
	Beta int
	// Eps is the approximation target; the maintained matching is
	// (1+O(ε))-approximate w.h.p.
	Eps float64
	// Delta overrides the per-vertex sample count; zero means
	// ⌈(β/ε)·ln(24/ε)⌉ (the lean calibration of params.Delta).
	Delta int
	// Sweeps is the number of augmentation sweeps of the static pipeline;
	// zero means 3.
	Sweeps int
	// MinBudget floors the per-update work budget; zero means 4·Δ/ε².
	MinBudget int64
}

// resolve fills the zero-valued fields through internal/params and returns
// the updated options plus the derived augmenting-path length bound.
// It panics on invalid Beta or Eps.
func (o Options) resolve() (Options, int) {
	r := params.Dynamic{
		Delta:     o.Delta,
		Sweeps:    o.Sweeps,
		MinBudget: o.MinBudget,
	}.ResolveFor(o.Beta, o.Eps)
	o.Delta, o.Sweeps, o.MinBudget = r.Delta, r.Sweeps, r.MinBudget
	return o, r.MaxLen
}

// Metrics reports the cost profile of a Maintainer, in work units (one
// unit = one visited vertex / sampled edge / scanned entry / DFS expansion
// / scanned bitset word; see Budget).
type Metrics struct {
	Updates        int64
	UnitsTotal     int64
	MaxUnitsUpdate int64 // worst-case units consumed by a single update
	MaxOverrun     int64 // worst-case units spent beyond that update's budget
	Recomputes     int64 // completed static recomputations (window swaps)
}

// Maintainer maintains a (1+ε)-approximate maximum matching under fully
// dynamic edge insertions and deletions. See the package comment for the
// scheme. All operations are deterministic in the per-update work budget;
// the approximation factor holds with high probability against an adaptive
// adversary.
type Maintainer struct {
	window
	g   *graph.Dynamic
	src *rand.PCG // retained for checkpointing (see checkpoint.go)
}

// New creates a Maintainer over an initially empty graph on n vertices.
// It panics on invalid opt.Beta or opt.Eps.
func New(n int, opt Options, seed uint64) *Maintainer {
	opt, maxLen := opt.resolve()
	src := rand.NewPCG(seed, 0xd1ce)
	g := graph.NewDynamic(n)
	return &Maintainer{
		window: newWindow(g, opt, maxLen, rand.New(src)),
		g:      g,
		src:    src,
	}
}

// N returns the number of vertices.
func (mt *Maintainer) N() int { return mt.g.N() }

// Graph exposes the current dynamic graph (read-only use).
func (mt *Maintainer) Graph() *graph.Dynamic { return mt.g }

// ResolvedOptions returns the options after zero-value resolution through
// internal/params — the Δ, sweep count, and budget floor the maintainer
// actually runs with. Conformance hook for internal/testkit.
func (mt *Maintainer) ResolvedOptions() Options { return mt.opt }

// Validate checks the maintainer's structural invariant: the output is a
// valid matching of the current graph (vertex-disjoint pairs over live
// edges). Conformance hook for internal/testkit and the fuzz oracles.
func (mt *Maintainer) Validate() error {
	return matching.Verify(mt.g.Snapshot(), mt.out)
}

// Insert adds edge {u, v}; it reports whether the edge was new.
func (mt *Maintainer) Insert(u, v int32) bool {
	added := mt.g.Insert(u, v)
	mt.advance(0)
	return added
}

// Delete removes edge {u, v}; it reports whether the edge existed.
// A deleted matched edge leaves the output matching immediately (the
// stability rule of Lemma 3.4).
func (mt *Maintainer) Delete(u, v int32) bool {
	existed := mt.g.Delete(u, v)
	if existed {
		mt.removeEdge(u, v)
	}
	mt.advance(0)
	return existed
}
