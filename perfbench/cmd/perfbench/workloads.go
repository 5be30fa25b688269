package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/arcs"
	"repro/internal/cli"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve/wire"
)

// workload is one named set of inputs. Every workload drives both entry
// points of the system — the static Theorem 3.1 pipeline on a built graph
// and the served Theorem 3.5 matcher on an update stream — because every
// end-to-end metric is reported on every workload. The two workloads pair a
// static input with a served stream so that each mechanism has one
// workload that exercises it and one that bypasses it.
type workload struct {
	name string
	why  string

	// Static pipeline: the input graph and Δ = core.DeltaLean(beta, eps).
	static func(seed uint64) *graph.Static
	beta   int
	eps    float64

	// Served path: the update stream on n vertices, the backend, the batch
	// size, how many leading updates go closed-loop (the rest go
	// open-loop), and the open-loop offered rate.
	stream   func(seed uint64) (n int, ups []wire.Update)
	backend  string
	batch    int
	satLen   int
	openRate float64 // updates per second, about half the saturated rate

	exactMCM bool // certify |M| ≥ MCM/(1+ε) with the exact blossom matcher
}

// servedBeta and servedEps are the server's matcher parameters on every
// workload (the matchd defaults).
const (
	servedBeta = 2
	servedEps  = 0.5
)

func workloads() []workload {
	return []workload{
		{
			name: "dense",
			why:  "static-dense + serve-dense: diversity β=2, n=20000, deg 512, where mark + G_Δ build dominate; edcs on the diversity2 load+churn trace, where n' ≈ n",
			static: func(seed uint64) *graph.Static {
				return gen.BoundedDiversityInstance(20000, 2, 512, seed).G
			},
			beta: 2, eps: 0.3,
			stream: func(seed uint64) (int, []wire.Update) {
				tr, err := cli.MakeTrace("diversity2", 4000, 64, 30_000, seed)
				if err != nil {
					panic(err) // the family name is a literal
				}
				ups := make([]wire.Update, len(tr.Updates))
				for i, u := range tr.Updates {
					ups[i] = wire.Update{Insert: u.Insert, U: u.U, V: u.V}
				}
				return tr.N, ups
			},
			backend: "edcs", batch: 512, satLen: 138_240, openRate: 6000,
			exactMCM: true,
		},
		{
			name: "sparse",
			why:  "static-line + serve-churn: line graph β=2, deg 4, ε=0.1, so G_Δ = G and phases dominate; gdelta on 70/30 churn over n=2^20, where 7% of vertices are non-isolated",
			static: func(seed uint64) *graph.Static {
				return gen.LineGraphInstance(120_000, 4, seed).G
			},
			beta: 2, eps: 0.1,
			stream: func(seed uint64) (int, []wire.Update) {
				return 1 << 20, churnStream(1<<20, 133_120, seed)
			},
			backend: "gdelta", batch: 1024, satLen: 71_680, openRate: 10_000,
		},
	}
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// churnStream is the T19 serving traffic shape: random inserts over the
// whole vertex range mixed 70/30 with deletions of live edges.
func churnStream(n, count int, seed uint64) []wire.Update {
	rng := rand.New(rand.NewPCG(seed, 0x5e2e))
	ups := make([]wire.Update, 0, count)
	live := make([]wire.Update, 0, count)
	for len(ups) < count {
		if len(live) > 0 && rng.Float64() < 0.3 {
			i := rng.IntN(len(live))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			ups = append(ups, wire.Update{Insert: false, U: e.U, V: e.V})
			continue
		}
		u, v := int32(rng.IntN(n)), int32(rng.IntN(n))
		if u == v {
			continue
		}
		e := wire.Update{Insert: true, U: u, V: v}
		ups = append(ups, e)
		live = append(live, e)
	}
	return ups
}

// inputs are everything a workload feeds the program, made from the seed.
type inputs struct {
	want   *graph.Static // the generator's graph; dropped once checked
	arcsIn int           // packed arcs handed to graph.FromPackedArcs
	g      *graph.Static // the CSR ingested from the shuffled arcs
	build  time.Duration // graph.FromPackedArcs time
	n      int           // vertices of the served stream
	ups    []wire.Update // the served stream
}

// makeInputs generates a workload's inputs and ingests the static graph
// from its arcs, packed and shuffled by seed.
func makeInputs(w workload, seed uint64) *inputs {
	in := &inputs{want: w.static(seed)}
	in.n, in.ups = w.stream(seed)
	keys := make([]uint64, 0, in.want.M())
	in.want.ForEachEdge(func(u, v int32) { keys = append(keys, arcs.Pack(u, v)) })
	rng := rand.New(rand.NewPCG(seed, 0xa5c5))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	in.arcsIn = len(keys)
	t0 := time.Now()
	in.g = graph.FromPackedArcs(in.want.N(), keys)
	in.build = time.Since(t0)
	return in
}
