package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/cli"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve/wire"
)

// tiny returns the named workload shrunk to run in about a second, with
// its shape (families, backend, checkpoint cadence) unchanged.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.openRate = 20_000
	switch name {
	case "dense":
		w.static = func(seed uint64) *graph.Static { return gen.BoundedDiversityInstance(400, 2, 48, seed).G }
		w.stream = func(seed uint64) (int, []wire.Update) {
			tr, err := cli.MakeTrace("diversity2", 200, 16, 500, seed)
			if err != nil {
				panic(err)
			}
			ups := make([]wire.Update, len(tr.Updates))
			for i, u := range tr.Updates {
				ups[i] = wire.Update{Insert: u.Insert, U: u.U, V: u.V}
			}
			return tr.N, ups
		}
		w.batch, w.satLen = 64, 1500
	case "sparse":
		w.static = func(seed uint64) *graph.Static { return gen.LineGraphInstance(2000, 4, seed).G }
		w.stream = func(seed uint64) (int, []wire.Update) { return 1 << 12, churnStream(1<<12, 3000, seed) }
		w.batch, w.satLen = 64, 2000
	default:
		t.Fatalf("no tiny form of workload %q", name)
	}
	return w
}

func tinyRun(t *testing.T, w workload, trace bool, mutate func(*runConfig)) (*result, *report) {
	t.Helper()
	cfg := runConfig{w: w, seed: 5, seconds: 1, trace: trace, buildDir: t.TempDir()}
	if mutate != nil {
		mutate(&cfg)
	}
	res, rep, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res, rep
}

// TestEveryMetricEmitted runs each workload at a tiny size, untraced and
// traced, and checks the result line carries every metric with its unit,
// the checks passed, and the traced run recorded every listed span.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res, rep := tinyRun(t, tiny(t, w.name), trace, nil)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d failures=%v",
						trace, res.Correct, res.Attempted, res.Failed, rep.Failures)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %q", trace, d.name, m, d.unit)
					}
				}
				if trace {
					checkSpans(t, rep.SpansFile)
				}
			}
		})
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.Name] = true
		if s.End < s.Start || s.Parent >= s.ID {
			t.Errorf("malformed span %+v", s)
		}
	}
	for _, name := range []string{
		spanSparsify(1), spanGreedy(1), spanPhases(1), "matching.DisjointAugment",
		spanEncode, spanDecode, spanApply, spanCheckpoint, spanMarshal, spanStoreWrite,
		spanRestore, spanRestoreLtd, spanBackendRes,
	} {
		if !seen[name] {
			t.Errorf("no %q span in %s", name, path)
		}
	}
}

// exactCounters are the per-layer metrics that count work rather than time
// it; they must repeat exactly for a fixed seed.
var exactCounters = []string{
	"graph.arcs_in", "graph.edges_out",
	"core.sparsifier_edges", "core.size_bound_ratio",
	"matching.greedy_size", "matching.phases", "matching.augmentations", "matching.aug_per_phase",
	"dynmatch.units_per_update", "dynmatch.max_units_update", "dynmatch.budget",
	"dynmatch.max_overrun", "dynmatch.recomputes",
	"serve.checkpoints", "serve.ckpt_mb", "loadgen.sent",
}

func TestCountersRepeat(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			a, _ := tinyRun(t, tiny(t, w.name), true, nil)
			b, _ := tinyRun(t, tiny(t, w.name), true, nil)
			for _, name := range exactCounters {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

// TestDamageFailsTheRun checks that a corrupted matching and a diverging
// replay each make the command fail.
func TestDamageFailsTheRun(t *testing.T) {
	for _, tc := range []struct {
		name     string
		workload string
		mutate   func(*runConfig)
	}{
		{"corrupt matching", "sparse", func(c *runConfig) { c.corruptMatching = true }},
		{"diverging replay", "sparse", func(c *runConfig) { c.divergeReplay = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := runConfig{w: tiny(t, tc.workload), seed: 5, seconds: 1, buildDir: t.TempDir()}
			tc.mutate(&cfg)
			devnull, err := os.Open(os.DevNull)
			if err != nil {
				t.Fatal(err)
			}
			defer devnull.Close()
			err = runAndPrint(cfg, devnull)
			if err == nil {
				t.Fatal("run passed its checks")
			}
			t.Log(err)
		})
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the definitions here.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f.Command, []string{"bash", "perfbench/run.sh"}) || !slices.Equal(f.Paths, []string{"perfbench"}) {
		t.Errorf("command %v paths %v", f.Command, f.Paths)
	}
	ws := workloads()
	if len(f.Workloads) != len(ws) {
		t.Fatalf("%d workloads, want %d", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, f.Workloads[i], w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, want %d and %d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		e := f.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, e, d)
		}
	}
	for i, d := range perLayer {
		e := f.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, e, d)
		}
	}
}
