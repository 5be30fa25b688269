package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// layerMetrics fills the per-layer metrics of a traced run. Timings come
// from the spans the benchmark recorded around each public call; counts
// come from the program's results and its public Metrics().
func layerMetrics(put func(string, float64), w workload, in *inputs, st *staticResult, srv *servedResult,
	rp *replayResult, tr *tracer, build []float64, rep *report) {
	nproc := runtime.NumCPU()
	med := func(name string) float64 { return median(durations(tr.durations(name), time.Second)) }

	put("graph.build_s", median(build))
	put("graph.arcs_in", float64(in.arcsIn))
	put("graph.edges_out", float64(in.g.M()))

	delta := core.DeltaLean(w.beta, w.eps)
	basis := st.size
	rep.SizeBound = "matching: |M| of the static result stands in for the MCM"
	if st.mcm > 0 {
		basis = st.mcm
		rep.SizeBound = "mcm: exact maximum matching (blossom)"
	}
	put("core.sparsify_s", med(spanSparsify(1)))
	put("core.sparsify_par_s", med(spanSparsify(nproc)))
	put("core.sparsifier_edges", float64(st.counts.sparsifierEdges))
	put("core.size_bound_ratio", float64(st.counts.sparsifierEdges)/float64(core.SizeUpperBound(basis, delta, w.beta)))

	put("matching.greedy_s", med(spanGreedy(1)))
	put("matching.greedy_size", float64(st.counts.greedySize))
	put("matching.phases_s", med(spanPhases(1)))
	put("matching.phases", float64(st.counts.phases))
	put("matching.augmentations", float64(st.counts.augmentations))
	put("matching.aug_per_phase", float64(st.counts.augmentations)/float64(st.counts.phases))

	applyMs := durations(rp.apply, time.Millisecond)
	applyTail, _ := tail(applyMs)
	put("dynmatch.apply_ms", median(applyMs))
	put("dynmatch.apply_tail_ms", applyTail)
	put("dynmatch.units_per_update", float64(rp.metrics.UnitsTotal)/float64(rp.metrics.Updates))
	put("dynmatch.max_units_update", float64(rp.metrics.MaxUnitsUpdate))
	put("dynmatch.budget", float64(rp.budget))
	put("dynmatch.max_overrun", float64(rp.metrics.MaxOverrun))
	put("dynmatch.recomputes", float64(rp.metrics.Recomputes))

	put("wire.encode_ns_per_update", rp.encodeNs)
	put("wire.decode_ns_per_update", rp.decodeNs)

	put("serve.ckpt_s", med(spanCheckpoint))
	put("serve.ckpt_mb", median(rp.ckptMB))
	put("serve.checkpoints", float64(len(rp.ckptMB)))
	put("serve.restore_store_s", med(spanRestoreLtd))
	put("serve.restore_backend_s", med(spanBackendRes))

	var satApply time.Duration
	for i, start := 0, 0; i < cycles; i++ {
		sat, end := w.cycleBounds(len(in.ups), i)
		for _, d := range rp.apply[start:sat] {
			satApply += d
		}
		start = end
	}
	put("serve.overhead_frac", 1-satApply.Seconds()/srv.satTime.Seconds())
	put("loadgen.late_ms", median(durations(srv.late, time.Millisecond)))
	put("loadgen.sent", float64(srv.sent))
	put("loadgen.failed", float64(srv.failed))
	put("trace.overhead_frac", median(durations(st.traced, time.Second))/median(durations(st.w1, time.Second))-1)
}

func equalGraphs(g, want *graph.Static) error {
	if !graph.Equal(g, want) {
		return fmt.Errorf("graphs differ: n=%d m=%d, want n=%d m=%d", g.N(), g.M(), want.N(), want.M())
	}
	return nil
}

func equalInts(got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("entry %d is %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}
