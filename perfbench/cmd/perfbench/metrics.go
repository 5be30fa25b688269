package main

import (
	"math"
	"slices"
	"time"
)

// metricDef is one named metric of the benchmark. End-to-end metrics are
// measured with tracing off; per-layer metrics come from the traced pass.
// BENCHMARK.json lists the same names, units, directions and bounds; a
// self-test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed relative worsening of the median
	// what says what the metric is (end-to-end) or, for a per-layer metric,
	// which end-to-end metric on which workload it should move.
	what string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "all: generate every input, ingest the CSR and start the server (median of 3 set-ups)"},
	{"match_s", "s", "lower", 0.25, "all: median time of one SparsifyOpts + PhaseStructuredApproxInto op, Workers=1, on the ingested CSR"},
	{"match_tail_s", "s", "lower", 0.25, "all: highest percentile of the same ops with at least 10 samples beyond it"},
	{"match_par_s", "s", "lower", 0.25, "all: median time of the same op at Workers=nproc"},
	{"alloc_mb", "MB/op", "lower", 0.1, "all: heap bytes allocated per Workers=1 match op"},
	{"match_size", "edges", "higher", 0.05, "all: size of the final static matching (deterministic per seed)"},
	{"serve_upd_s", "upd/s", "higher", 0.25, "all: closed-loop saturated throughput over the run's saturation segments"},
	{"commit_p50_ms", "ms", "lower", 0.25, "all: open-loop commit latency from due time to flush-barrier reply, median"},
	{"commit_tail_ms", "ms", "lower", 0.25, "all: open-loop commit latency, highest percentile with at least 10 samples beyond it"},
	{"restore_s", "s", "lower", 0.25, "all: time from restart to a served Welcome on the final checkpoint, median of 10 restarts spread over the run's last static slice"},
}

var perLayer = []metricDef{
	{"graph.build_s", "s", "lower", 0, "setup_s mostly on dense; also match_s on dense (the same builder runs inside core)"},
	{"graph.arcs_in", "count", "lower", 0, "exact count of shuffled packed arcs handed to graph.FromPackedArcs; setup_s on dense"},
	{"graph.edges_out", "count", "lower", 0, "exact edges of the ingested CSR; setup_s on dense"},
	{"core.sparsify_s", "s", "lower", 0, "match_s: large share on dense, small on sparse"},
	{"core.sparsify_par_s", "s", "lower", 0, "match_par_s: large share on dense, small on sparse"},
	{"core.sparsifier_edges", "count", "lower", 0, "exact |E(G_Δ)|; match_s on dense"},
	{"core.size_bound_ratio", "ratio", "lower", 0, "gauge: |E(G_Δ)| / core.SizeUpperBound (Observation 2.10); exact MCM on dense, |M| on sparse"},
	{"matching.greedy_s", "s", "lower", 0, "match_s: ~15% on dense, ~6% on sparse (probe shares)"},
	{"matching.greedy_size", "count", "higher", 0, "exact greedy matching size; match_s via fewer phases"},
	{"matching.phases_s", "s", "lower", 0, "match_s: ~78% on sparse, ~3% on dense (probe shares)"},
	{"matching.phases", "count", "lower", 0, "exact DisjointAugment calls per op; match_s on sparse"},
	{"matching.augmentations", "count", "lower", 0, "exact augmentations per op; match_s on sparse"},
	{"matching.aug_per_phase", "ratio", "higher", 0, "augmentations per DisjointAugment call; match_s on sparse"},
	{"dynmatch.apply_ms", "ms", "lower", 0, "median matcher Insert/Delete time per batch; serve_upd_s and commit_* on both workloads"},
	{"dynmatch.apply_tail_ms", "ms", "lower", 0, "tail of the same per-batch apply time; commit_tail_ms on both workloads"},
	{"dynmatch.units_per_update", "units", "lower", 0, "exact work units per update (Metrics()); serve_upd_s: an n'-scaling fix moves sparse, not dense"},
	{"dynmatch.max_units_update", "units", "lower", 0, "exact worst units spent by one update; commit_tail_ms on sparse"},
	{"dynmatch.budget", "units", "lower", 0, "per-update work budget at the end of the stream (Theorem 3.5; 0 for the amortized edcs backend)"},
	{"dynmatch.max_overrun", "units", "lower", 0, "worst units beyond an update's budget (Theorem 3.5 gauge; measured, not gated)"},
	{"dynmatch.recomputes", "count", "lower", 0, "exact completed recomputes; serve_upd_s on both workloads"},
	{"wire.encode_ns_per_update", "ns", "lower", 0, "wire.EncodeFrame time per update; small share of serve_upd_s on both workloads"},
	{"wire.decode_ns_per_update", "ns", "lower", 0, "wire.DecodeFrame time per update; small share of serve_upd_s on both workloads"},
	{"serve.ckpt_s", "s", "lower", 0, "median MarshalCheckpoint + Store.Write time of the per-cycle checkpoints; larger on sparse (n=2^20)"},
	{"serve.ckpt_mb", "MB", "lower", 0, "median sealed checkpoint size; serve.ckpt_s and restore_s, larger on sparse"},
	{"serve.checkpoints", "count", "lower", 0, "checkpoints the traced replay writes, one where each cycle ends"},
	{"serve.restore_store_s", "s", "lower", 0, "median RestoreLatest time; restore_s"},
	{"serve.restore_backend_s", "s", "lower", 0, "median Backend.Restore time; restore_s"},
	{"serve.overhead_frac", "ratio", "lower", 0, "derived: 1 - traced apply time / served saturation time"},
	{"loadgen.late_ms", "ms", "lower", 0, "health: median lateness of open-loop sends against their due time"},
	{"loadgen.sent", "count", "higher", 0, "health: batches the load generator sent"},
	{"loadgen.failed", "count", "lower", 0, "health: batches that were shed, refused or answered wrongly"},
	{"trace.overhead_frac", "ratio", "lower", 0, "derived: traced static op median / untraced op median - 1"},
}

// median returns the median of xs (the mean of the middle two for an even
// count). It does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := len(s) / 2
	if len(s)%2 == 1 {
		return s[k]
	}
	return (s[k-1] + s[k]) / 2
}

// tail returns the highest sample that still has at least 10 samples
// above it — the highest percentile with ten samples beyond it — and that
// percentile. With 10 or fewer samples it falls back to the maximum.
func tail(xs []float64) (value, percentile float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := len(s) - 11
	if i < 0 {
		i = len(s) - 1
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

func durations(ds []time.Duration, scale time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(scale)
	}
	return out
}
