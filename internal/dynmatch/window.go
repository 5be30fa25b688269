package dynmatch

import (
	"math/rand/v2"

	"repro/internal/graph"
	"repro/internal/matching"
)

// window is the Gupta–Peng stability-window machinery that Maintainer and
// ObliviousMaintainer share: the output matching, the background staticRun
// that will replace it, and the per-update work budget paced from the
// last finished run.
//
// The output matching and the run's partial matching live in two n-entry
// mate arrays that trade places at every swap: the finished run's array
// becomes the output, and the output it replaces becomes the next run's
// array, reset only at the vertices its matched list names. A swap thus
// costs O(vertices the finished runs touched), not O(n), and allocates
// nothing in steady state.
type window struct {
	opt        Options
	delta      int
	maxLen     int
	budget     int64
	out        *matching.Matching
	outMates   []int32 // out's mate array, recycled at the next swap
	outMatched []int32 // every v with outMates[v] >= 0 (possibly more)
	run        *staticRun
	bufs       *runBuffers
	metrics    Metrics
}

// newWindow starts an empty output matching and the first run over g,
// which is the graph every run of this window reads.
func newWindow(g *graph.Dynamic, opt Options, maxLen int, rng *rand.Rand) window {
	n := g.N()
	mates := make([]int32, n)
	for i := range mates {
		mates[i] = -1
	}
	w := window{
		opt:      opt,
		delta:    opt.Delta,
		maxLen:   maxLen,
		budget:   opt.MinBudget,
		out:      matching.WrapMates(mates, 0),
		outMates: mates,
		bufs:     newRunBuffers(n, opt.Delta),
	}
	w.run = newStaticRunBuf(g, w.delta, maxLen, opt.Sweeps, rng, w.bufs)
	return w
}

// Matching returns the maintained matching. It is valid only until the
// next update: its mate array is recycled as the background run's scratch
// at the following window swap. Copy it (Mates) to keep it, and do not
// mutate it.
func (w *window) Matching() *matching.Matching { return w.out }

// Size returns the current matching size.
func (w *window) Size() int { return w.out.Size() }

// Metrics returns the accumulated cost counters.
func (w *window) Metrics() Metrics { return w.metrics }

// Budget returns the current per-update work budget: the worst-case units
// one update spends on the background recomputation, up to the bounded
// overrun of a single augmenting DFS (8·(Δ+1)·(maxLen+1) units). A unit is
// one visited non-isolated vertex, one sampled edge, one scanned sampled
// adjacency entry, one DFS edge expansion, or one 64-vertex word of the
// non-isolated bitset scanned while looking for the next vertex; a scan
// never runs past the update's remaining budget. The budget is recalibrated
// at every window swap to 2·(units of the finished run)/(window length),
// floored at Options.MinBudget, so it shrinks with the number of
// non-isolated vertices rather than with n.
func (w *window) Budget() int64 { return w.budget }

// removeEdge evicts a deleted edge {u, v} from both the output matching
// (the stability rule of Lemma 3.4) and the in-progress run.
func (w *window) removeEdge(u, v int32) {
	w.out.RemoveEdge(u, v)
	w.out.RemoveEdge(v, u)
	w.run.removeEdge(u, v)
}

// advance spends one update's work budget on the background recomputation,
// swapping in the fresh matching when it completes; extra is the update's
// own charge outside the run.
func (w *window) advance(extra int64) {
	w.metrics.Updates++
	budget := w.budget
	before := w.run.units
	done := w.run.step(budget)
	spent := w.run.units - before + extra
	if done {
		spent += w.swap()
	}
	w.metrics.UnitsTotal += spent
	if spent > w.metrics.MaxUnitsUpdate {
		w.metrics.MaxUnitsUpdate = spent
	}
	if over := spent - budget; over > w.metrics.MaxOverrun {
		w.metrics.MaxOverrun = over
	}
}

// swap installs the finished run's matching, recalibrates the budget from
// the run's measured cost, and starts the next run on the mate array of
// the matching it replaced. It returns the units charged for the swap.
func (w *window) swap() int64 {
	r := w.run
	mates, size := r.result()
	w.bufs.mate, w.bufs.matched = w.outMates, w.outMatched
	w.out, w.outMates, w.outMatched = matching.WrapMates(mates, size), mates, r.matched
	w.metrics.Recomputes++
	// Window length ℓ = 1 + ⌊ε·|M|/4⌋ updates; pace the next run so it
	// finishes within one window: budget ≈ 2·(measured cost)/ℓ.
	l := 1 + int64(w.opt.Eps*float64(size)/4)
	w.budget = max(2*r.units/l+1, w.opt.MinBudget)
	r.releaseInto(w.bufs)
	w.run = newStaticRunBuf(r.g, w.delta, w.maxLen, w.opt.Sweeps, r.rng, w.bufs)
	return 1
}

// ForceRecompute drives the background run to completion immediately and
// swaps the result in. Intended for tests and for bootstrapping a
// pre-loaded graph; it is the only operation whose cost is not budgeted.
func (w *window) ForceRecompute() {
	for !w.run.step(1 << 20) {
	}
	w.metrics.UnitsTotal += w.swap()
}
