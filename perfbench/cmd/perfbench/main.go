// Command perfbench is the repository's benchmark. One run generates a
// workload's inputs from a seed, measures the static Theorem 3.1 pipeline
// and the served Theorem 3.5 matcher on them for a fixed time, checks every
// result, and prints the metrics as one JSON object on its last line.
//
//	perfbench --workload dense --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it also
// runs a traced pass, records a span around each public call into the
// program, writes the spans under the build directory and reports the
// per-layer metrics. --workload all runs every workload in turn.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/serve"
)

// watchdog bounds a whole run; a run that overstays it fails.
const watchdog = 170 * time.Second

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Uint64("seed", 1, "seed all inputs are made from")
	secs := fs.Int("seconds", 40, "how long one run measures")
	trace := fs.Int("trace", 0, "1: run the traced pass and report per-layer metrics")
	buildDir := fs.String("build-dir", ".bench_build", "directory for spans and scratch checkpoints")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *name == "" || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads() {
			names = append(names, w.name)
		}
	}
	ok := true
	for _, n := range names {
		w, err := workloadByName(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		cfg := runConfig{w: w, seed: *seed, seconds: *secs, trace: *trace == 1, buildDir: *buildDir}
		if err := runAndPrint(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runConfig is one run's settings. The hooks exist for the self-tests: they
// damage a result so the tests can see the run fail.
type runConfig struct {
	w        workload
	seed     uint64
	seconds  int
	trace    bool
	buildDir string

	corruptMatching bool // hand matching.Verify a matching with a non-edge
	divergeReplay   bool // leave the first batch out of the direct replay
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runAndPrint runs one workload, prints a report line and the result line,
// and returns an error when a check failed.
func runAndPrint(cfg runConfig, out io.Writer) error {
	res, rep, err := run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.w.name, err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	if b, err = json.Marshal(res); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	if !res.Correct {
		return fmt.Errorf("%s: %d correctness check(s) failed: %v", cfg.w.name, len(rep.Failures), rep.Failures)
	}
	return nil
}

// checker counts operations and collects failed checks. A failed operation
// stays in the denominator.
type checker struct {
	attempted, succeeded, shed, failed int
	failures                           []string
}

// check records a correctness check that is not an operation.
func (c *checker) check(what string, err error) {
	if err != nil {
		c.failures = append(c.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

func (c *checker) fail(err error) { c.failures = append(c.failures, err.Error()) }

// op counts one operation and its outcome.
func (c *checker) op(what string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		c.check(what, err)
		return
	}
	c.succeeded++
}

// batch counts one served batch; a shed batch is also a failure, since the
// stream cannot complete without it.
func (c *checker) batch(what string, err error) {
	if errors.Is(err, errShed) {
		c.shed++
	}
	c.op(what, err)
}

// report is the line printed before the result: provenance, sample counts
// and the checks, so a reader can tell what each number rests on.
type report struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Ops        map[string]int     `json:"ops"`
	Samples    map[string]int     `json:"samples"`
	TailPct    map[string]float64 `json:"tail_percentile"`
	SatRates   []float64          `json:"saturation_segment_upd_s"`
	SizeBound  string             `json:"size_bound_basis"`
	SpansFile  string             `json:"spans_file,omitempty"`
	Failures   []string           `json:"failures"`
	Why        string             `json:"why"`
}

func run(cfg runConfig) (*result, *report, error) {
	w := cfg.w
	chk := &checker{}
	rep := &report{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Samples: map[string]int{}, TailPct: map[string]float64{}, Why: w.why,
	}
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return nil, nil, err
	}
	scratch, err := os.MkdirTemp(cfg.buildDir, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(scratch)
	ckptDir := filepath.Join(scratch, "served")
	replayDir := filepath.Join(scratch, "replay")
	serverSeed := cfg.seed + 7

	// Set-up, three times: generate every input, ingest the CSR, start the
	// server. The run goes on with the last set-up's inputs and server.
	var (
		in     *inputs
		sv     *server
		srvCfg serve.Config
		setup  []float64
		build  []float64
	)
	for i := 0; i < setups; i++ {
		if sv != nil {
			sv.stop()
			os.RemoveAll(ckptDir)
		}
		in = nil
		runtime.GC()
		t0 := time.Now()
		in = makeInputs(w, cfg.seed)
		srvCfg = serverConfig(w, in.n, serverSeed, ckptDir)
		s, err := serve.New(srvCfg)
		if err != nil {
			return nil, nil, err
		}
		if sv, err = startServer(s); err != nil {
			return nil, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		build = append(build, in.build.Seconds())
	}
	chk.check("input: ingested CSR equals the generator's graph", equalGraphs(in.g, in.want))

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	sess, err := newSession(w, sv, srvCfg, in.ups, chk)
	if err != nil {
		return nil, nil, err
	}
	op := newStaticRun(w, in, cfg.seed+101, tr, chk, cfg.corruptMatching)
	defer op.close()
	in.want = nil // checked; the ingested copy serves from here on
	start := time.Now()
	sliceEnd := func(i int) time.Time {
		return start.Add(time.Duration(cfg.seconds) * time.Second * time.Duration(i+1) / cycles)
	}
	for i := 0; i < cycles-1; i++ {
		if err := sess.cycle(i); err != nil {
			sess.close()
			return nil, nil, err
		}
		op.measure(sliceEnd(i), (minStaticOps+cycles-1)/cycles)
	}
	// The last cycle ends the stream, so its checkpoint holds the final
	// state: time restarts from it, spread over the last static slice.
	if err := sess.cycle(cycles - 1); err != nil {
		sess.close()
		return nil, nil, err
	}
	from := time.Now()
	for j := 1; j <= finalRestarts; j++ {
		d, err := sess.restart()
		if err != nil {
			sess.close()
			return nil, nil, err
		}
		sess.res.restore = append(sess.res.restore, d)
		op.measure(from.Add(sliceEnd(cycles-1).Sub(from)*time.Duration(j)/finalRestarts), 1)
	}
	if err := sess.close(); err != nil {
		return nil, nil, err
	}
	srv, st := sess.res, op.res
	runtime.GC() // the replay starts from a collected heap, as each served cycle does
	rp, err := replay(w, srvCfg, in.ups, tr, replayDir, cfg.divergeReplay)
	if err != nil {
		return nil, nil, err
	}
	if err := equalInts(srv.mates, rp.mates); err != nil {
		chk.fail(fmt.Errorf("serve: served matching differs from the direct replay: %w", err))
	}

	res := &result{Metrics: map[string]metric{}}
	put := func(name string, v float64) {
		res.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	matchTail, pct := tail(durations(st.w1, time.Second))
	commitTail, cpct := tail(durations(srv.commit, time.Millisecond))
	rep.TailPct["match_tail_s"], rep.TailPct["commit_tail_ms"] = pct, cpct
	rep.Samples["setup"] = len(setup)
	rep.Samples["match_w1"] = len(st.w1)
	rep.Samples["match_par"] = len(st.par)
	rep.Samples["commit"] = len(srv.commit)
	rep.Samples["restore"] = len(srv.restore)
	rep.Samples["saturation_updates"] = srv.satUpdates
	rep.SatRates = srv.satRates

	if !cfg.trace {
		put("setup_s", median(setup))
		put("match_s", median(durations(st.w1, time.Second)))
		put("match_tail_s", matchTail)
		put("match_par_s", median(durations(st.par, time.Second)))
		put("alloc_mb", median(st.allocMB))
		put("match_size", float64(st.size))
		put("serve_upd_s", float64(srv.satUpdates)/srv.satTime.Seconds())
		put("commit_p50_ms", median(durations(srv.commit, time.Millisecond)))
		put("commit_tail_ms", commitTail)
		put("restore_s", median(durations(srv.restore, time.Second)))
	} else {
		layerMetrics(put, w, in, st, srv, rp, tr, build, rep)
		rep.SpansFile = filepath.Join(cfg.buildDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
		if err := tr.write(rep.SpansFile); err != nil {
			return nil, nil, err
		}
	}

	rep.Ops = map[string]int{"attempted": chk.attempted, "succeeded": chk.succeeded, "shed": chk.shed, "failed": chk.failed}
	rep.Failures = chk.failures
	res.Correct = len(chk.failures) == 0
	res.Attempted, res.Failed = chk.attempted, chk.failed
	return res, rep, nil
}

const setups = 3

func unitOf(name string) string {
	for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: unknown metric " + name)
}
