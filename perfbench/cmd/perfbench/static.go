package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matching"
)

// staticOp is the static pipeline a user runs on a built graph: sparsify to
// G_Δ, then the phase-structured (1+ε) matching on G_Δ.
type staticOp struct {
	g     *graph.Static
	delta int
	eps   float64
	seed  uint64 // sparsifier seed; the matching uses seed+1
	e1    *matching.Engine
	ePar  *matching.Engine
	m     *matching.Matching
}

func newStaticOp(w workload, g *graph.Static, seed uint64) *staticOp {
	return &staticOp{
		g:     g,
		delta: core.DeltaLean(w.beta, w.eps),
		eps:   w.eps,
		seed:  seed,
		e1:    matching.NewEngine(matching.Options{Workers: 1}),
		ePar:  matching.NewEngine(matching.Options{Workers: runtime.NumCPU()}),
		m:     matching.NewMatching(g.N()),
	}
}

func (op *staticOp) close() {
	op.e1.Close()
	op.ePar.Close()
}

func (op *staticOp) engine(workers int) *matching.Engine {
	if workers == 1 {
		return op.e1
	}
	return op.ePar
}

// run is the untraced op: one SparsifyOpts and one PhaseStructuredApproxInto
// call. It leaves the matching in op.m.
func (op *staticOp) run(workers int) {
	gd := core.SparsifyOpts(op.g, core.Options{Delta: op.delta, Workers: workers}, op.seed)
	op.engine(workers).PhaseStructuredApproxInto(gd, op.m, op.eps, op.seed+1)
}

// opCounts are the exact work counters of one traced op.
type opCounts struct {
	sparsifierEdges int
	greedySize      int
	phases          int
	augmentations   int
}

// runTraced is the same op with a span around every public call: the
// sparsifier, the greedy start, and each DisjointAugment under one span for
// the phase schedule L = 1, 3, …, AugmentLenFor(ε), each length iterated
// to its fixpoint exactly as PhaseStructuredApproxInto does.
func (op *staticOp) runTraced(tr *tracer, workers int) opCounts {
	root := tr.begin(fmt.Sprintf("static.op/workers=%d", workers), 0)
	defer tr.end(root)
	e := op.engine(workers)
	var c opCounts

	id := tr.begin(spanSparsify(workers), root)
	gd := core.SparsifyOpts(op.g, core.Options{Delta: op.delta, Workers: workers}, op.seed)
	tr.end(id)
	c.sparsifierEdges = gd.M()

	id = tr.begin(spanGreedy(workers), root)
	e.GreedyShuffledInto(gd, op.m, op.seed+1)
	tr.end(id)
	c.greedySize = op.m.Size()

	sched := tr.begin(spanPhases(workers), root)
	maxLen := matching.AugmentLenFor(op.eps)
	for L := 1; L <= maxLen; L += 2 {
		for {
			id := tr.begin("matching.DisjointAugment", sched)
			k := e.DisjointAugment(gd, op.m, L)
			tr.end(id)
			c.phases++
			c.augmentations += k
			if k == 0 {
				break
			}
		}
	}
	tr.end(sched)
	return c
}

func spanSparsify(workers int) string { return fmt.Sprintf("core.SparsifyOpts/workers=%d", workers) }
func spanGreedy(workers int) string {
	return fmt.Sprintf("matching.GreedyShuffledInto/workers=%d", workers)
}
func spanPhases(workers int) string {
	return fmt.Sprintf("matching.phase_schedule/workers=%d", workers)
}

// staticResult is what the static part of a run measured.
type staticResult struct {
	w1, par []time.Duration // untraced op times
	allocMB []float64       // heap MB allocated per Workers=1 op
	size    int
	mates   []int32
	mcm     int             // exact maximum matching size; 0 when not computed
	traced  []time.Duration // traced Workers=1 op times
	counts  opCounts
}

// minStaticOps is the least number of Workers=1 ops per run, enough for
// the tail to sit above the median.
const minStaticOps = 24

// staticRun measures the static pipeline of one run in slices.
type staticRun struct {
	op  *staticOp
	res *staticResult
	tr  *tracer
	chk *checker
	ops int
}

// newStaticRun warms the engines' arenas and checks the first result
// against the generator's graph, across worker counts and, where the
// workload asks, against the exact optimum.
func newStaticRun(w workload, in *inputs, seed uint64, tr *tracer, chk *checker, corrupt bool) *staticRun {
	r := &staticRun{op: newStaticOp(w, in.g, seed), res: &staticResult{}, tr: tr, chk: chk}
	op, res := r.op, r.res
	op.run(1)
	res.size = op.m.Size()
	res.mates = op.m.Mates()
	got := op.m
	if corrupt {
		got = corrupted(in.want, op.m)
	}
	chk.check("static: matching.Verify against the input graph", matching.Verify(in.want, got))
	op.run(runtime.NumCPU())
	chk.check("static: Workers=nproc matching equals Workers=1", equalMates(op.m, res.mates))
	if w.exactMCM {
		res.mcm = matching.MaximumGeneral(in.g).Size()
		if float64(res.size)*(1+w.eps) < float64(res.mcm) {
			chk.fail(fmt.Errorf("static: |M|=%d below MCM/(1+ε) = %d/%.2f", res.size, res.mcm, 1+w.eps))
		}
	}
	return r
}

func (r *staticRun) close() { r.op.close() }

// measure runs untraced ops until the deadline and at least minOps of them;
// every third op also runs at Workers=nproc. With a tracer, each untraced
// Workers=1 op is followed by a traced op at Workers=1 and at nproc, and
// each traced result must be mate-for-mate the untraced one.
func (r *staticRun) measure(deadline time.Time, minOps int) {
	op, res, chk := r.op, r.res, r.chk
	// Collect the served part's garbage, then refill the sparsifier's
	// pooled arc buffers with one untimed op, so the slice starts from the
	// state a process running only the static pipeline would be in.
	runtime.GC()
	op.run(1)
	var ms runtime.MemStats
	for done := 0; done < minOps || time.Now().Before(deadline); done++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		t0 := time.Now()
		op.run(1)
		res.w1 = append(res.w1, time.Since(t0))
		runtime.ReadMemStats(&ms)
		res.allocMB = append(res.allocMB, float64(ms.TotalAlloc-before)/1e6)
		chk.op("static: Workers=1 op result changed between ops", equalMates(op.m, res.mates))

		if r.ops++; r.ops%3 == 0 {
			t0 = time.Now()
			op.run(runtime.NumCPU())
			res.par = append(res.par, time.Since(t0))
			chk.op("static: Workers=nproc op differs from Workers=1", equalMates(op.m, res.mates))
		}
		if r.tr == nil {
			continue
		}
		for _, workers := range []int{1, runtime.NumCPU()} {
			t0 = time.Now()
			c := op.runTraced(r.tr, workers)
			d := time.Since(t0)
			if workers == 1 {
				if len(res.traced) > 0 && c != res.counts {
					chk.fail(fmt.Errorf("static: work counters changed between traced ops: %+v then %+v", res.counts, c))
				}
				res.traced = append(res.traced, d)
				res.counts = c
			}
			chk.op("static: traced matching differs from PhaseStructuredApproxInto", equalMates(op.m, res.mates))
		}
	}
}

func equalMates(m *matching.Matching, want []int32) error {
	if m.N() != len(want) {
		return fmt.Errorf("matching over %d vertices, want %d", m.N(), len(want))
	}
	for v, w := range want {
		if m.Mate(int32(v)) != w {
			return fmt.Errorf("mate of %d is %d, want %d", v, m.Mate(int32(v)), w)
		}
	}
	return nil
}

// corrupted returns m with two matched pairs re-paired across a non-edge,
// a matching matching.Verify must reject.
func corrupted(g *graph.Static, m *matching.Matching) *matching.Matching {
	mates := m.Mates()
	for a := range mates {
		b := mates[a]
		if b < 0 {
			continue
		}
		for c := range mates {
			d := mates[c]
			if d < 0 || c == a || c == int(b) || g.HasEdge(int32(a), int32(c)) {
				continue
			}
			mates[a], mates[c], mates[b], mates[d] = int32(c), int32(a), d, b
			return matching.FromMates(mates)
		}
	}
	panic("perfbench: no non-edge to corrupt the matching with")
}
