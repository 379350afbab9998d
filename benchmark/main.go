// Command benchmark measures what the caf2go simulator costs on the host:
// one process per workload runs complete simulations of a frozen size,
// checks their outputs, and prints host-time metrics end to end (--trace 0)
// or a per-layer budget read from outside the program (--trace 1).
// README.md has the protocol and every metric's definition.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		workloadName = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed         = flag.Int64("seed", 1, "seed of caf.Config.Seed and the arrival schedule")
		seconds      = flag.Float64("seconds", runSeconds, "how long the timed reps last")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from profiled reps, counts and probes")
		out          = flag.String("out", "benchmark/out", "directory for result files, spans and the folded profile")
		probes       = flag.Bool("probes", false, "run only the layer probes, each for at least a second, and write probes.json")
		compare      = flag.Bool("compare", false, "compare two result directories given as arguments")
		printJSON    = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
	)
	flag.Parse()
	// Fixed, and recorded in every result: before Go 1.25 the default
	// ignores a container's CPU quota.
	runtime.GOMAXPROCS(gomaxprocs)
	switch {
	case *printJSON:
		doc, err := manifest()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(doc)
		return err
	case *compare:
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result directories")
		}
		return compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *probes:
		spans := newSpanLog(time.Now())
		res := &result{Workload: "probes", Env: environment(), Metrics: map[string]metricValue{}}
		runProbes(res, spans, nil, time.Second)
		printTable(os.Stdout, res, probeMetrics)
		return writeJSON(filepath.Join(*out, "probes.json"), res)
	}
	w, err := findWorkload(*workloadName)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	spans := newSpanLog(time.Now())
	res, prof, err := run(runConfig{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, probeBudget: 30 * time.Millisecond,
	}, spans)
	if err != nil {
		return err
	}
	base := filepath.Join(*out, fmt.Sprintf("%s.seed%d.trace%d", w.name, *seed, *trace))
	if err := writeJSON(base+".json", res); err != nil {
		return err
	}
	if err := writeJSON(base+".spans.json", spans.spans); err != nil {
		return err
	}
	if prof != nil {
		if err := os.WriteFile(base+".folded", []byte(foldedText(prof)), 0o644); err != nil {
			return err
		}
	}
	table := endToEnd
	if *trace == 1 {
		table = perLayer
	}
	printTable(os.Stdout, res, table)
	line, err := json.Marshal(res.driverLine(table))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}

const (
	gomaxprocs  = 2
	setupsTimed = 3 // set-ups per run; setup_s is their median
	minReps     = 3
	maxReps     = 64
	refReps     = 3   // hooks-off reps a traced run of kv-traced measures itself against
	profileSecs = 5.0 // the profiled reps last at least this long, and at least two reps
)

type runConfig struct {
	workload    *workload
	seed        int64
	seconds     float64
	trace       bool
	short       bool          // unit-test sizes; one profiled rep
	probeBudget time.Duration // per probe reading in a traced run
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type envInfo struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
}

type repStats struct {
	N       int       `json:"n"`
	WallS   []float64 `json:"wall_s"`
	Q1S     float64   `json:"q1_s"`
	MedianS float64   `json:"median_s"`
	Q3S     float64   `json:"q3_s"`
	IQRFrac float64   `json:"iqr_frac"`
}

// result is one run's reading, written to -out and read back by -compare.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Trace     int       `json:"trace"`
	Env       envInfo   `json:"env"`
	Op        string    `json:"op"`
	OpsPerRep int64     `json:"ops_per_rep"`
	Reps      repStats  `json:"reps"`
	SetupsS   []float64 `json:"setups_s"`
	// Operations attempted and failed over every simulation of the run.
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// noisy reports that the timed reps spread wider than noisyIQRFrac: the
// clock readings of this run are UNRESOLVED, not a reading.
func (r *result) noisy() bool { return r.Reps.IQRFrac > noisyIQRFrac }

// environment records what the readings depend on. run.sh passes the
// commit in BENCH_COMMIT when the checkout is a git repository.
func environment() envInfo {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return envInfo{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Commit: commit}
}

// set records a metric the tables declare; an undeclared name is a bug.
func (r *result) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("metric " + name + " is not declared in metrics.go")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// driverLine is the object printed last: exactly the metrics of table.
func (r *result) driverLine(table []metricDef) map[string]any {
	metrics := map[string]metricValue{}
	for _, m := range table {
		v, ok := r.Metrics[m.Name]
		if !ok {
			v = metricValue{Unit: m.Unit} // does not apply to this workload
		}
		metrics[m.Name] = v
	}
	return map[string]any{"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// runner carries one run's state through the protocol of README.md.
type runner struct {
	c     runConfig
	spans *spanLog
	root  *span
	res   *result
}

// subject is one generated input and the first output it produced, which
// every later output of the same input must equal.
type subject struct {
	in    *input
	first *output
}

// rep runs one complete simulation under parent, verifies it and holds it
// against the subject's first output. It returns the simulation's wall
// time alone: verification is the benchmark's cost, not the program's.
func (r *runner) rep(parent *span, s *subject) (time.Duration, *output, error) {
	sim := r.spans.start(parent, "simulate")
	out, err := s.in.run()
	wall := r.spans.end(sim)
	if err != nil {
		return 0, nil, err
	}
	ver := r.spans.start(parent, "verify")
	defer r.spans.end(ver)
	failed, err := s.in.verify(out)
	if err != nil {
		return 0, nil, err
	}
	r.res.Attempted += s.in.ops
	r.res.Failed += failed
	if s.first == nil {
		s.first = out
	} else if err := sameOutput(s.first, out); err != nil {
		return 0, nil, err
	}
	return wall, out, nil
}

// reps repeats rep under spans name[i] while more says so. It returns each
// rep's wall time in seconds and resident-set peak in MB, and the last
// output.
func (r *runner) reps(name string, s *subject, more func(done int, elapsed float64) bool) (walls, rssMB []float64, last *output, err error) {
	for start := time.Now(); more(len(walls), time.Since(start).Seconds()); {
		resetPeakRSS()
		sp := r.spans.start(r.root, fmt.Sprintf("%s[%d]", name, len(walls)))
		wall, out, err := r.rep(sp, s)
		r.spans.end(sp)
		if err != nil {
			return nil, nil, nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, nil, nil, err
		}
		walls, rssMB, last = append(walls, wall.Seconds()), append(rssMB, rss), out
	}
	return walls, rssMB, last, nil
}

// atLeast asks for n reps and then more until seconds have passed.
func atLeast(n int, seconds float64) func(int, float64) bool {
	return func(done int, elapsed float64) bool {
		return done < n || (done < maxReps && elapsed < seconds)
	}
}

// setUp is everything between process start and the first timed rep:
// generate the inputs and reference answers, then one complete untimed
// simulation whose output is verified like any other. It returns that
// simulation's wall time.
func (r *runner) setUp(w *workload, s *subject, i int) (time.Duration, error) {
	sp := r.spans.start(r.root, fmt.Sprintf("setup[%d]", i))
	defer func() { r.res.SetupsS = append(r.res.SetupsS, r.spans.end(sp).Seconds()) }()
	gen := r.spans.start(sp, "generate")
	in, err := w.generate(r.c.seed, r.c.short)
	r.spans.end(gen)
	if err != nil {
		return 0, err
	}
	s.in = in
	wall, _, err := r.rep(sp, s)
	return wall, err
}

// run executes the protocol and returns the result, plus the profile's
// stacks when the run was traced.
func run(c runConfig, spans *spanLog) (*result, []stack, error) {
	w := c.workload
	res := &result{
		Workload: w.name, Seed: c.seed, Env: environment(), Op: w.op,
		Metrics: map[string]metricValue{},
	}
	r := &runner{c: c, spans: spans, root: spans.start(nil, "run"), res: res}
	defer spans.end(r.root)

	// An end-to-end run sets up several times and reports the median; a
	// traced run reports no setup_s and sets up once. A traced run of a
	// workload with a hooks-off reference warms up on the reference and
	// reads it first.
	subj, nSetups := &subject{}, setupsTimed
	warm, warmSubj := w, subj
	var ref *subject
	if c.trace {
		res.Trace, nSetups = 1, 1
		if w.reference != "" {
			ref = &subject{}
			warmSubj = ref
			var err error
			if warm, err = findWorkload(w.reference); err != nil {
				return nil, nil, err
			}
		}
	}
	var warmupWall time.Duration
	for i := 0; i < nSetups; i++ {
		wall, err := r.setUp(warm, warmSubj, i)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			warmupWall = wall
		}
	}
	var refWalls, refRSS []float64
	if ref != nil {
		var err error
		if refWalls, refRSS, _, err = r.reps("reference", ref, atLeast(refReps, 0)); err != nil {
			return nil, nil, err
		}
		if subj.in, err = w.generate(c.seed, c.short); err != nil {
			return nil, nil, err
		}
	}
	res.OpsPerRep = subj.in.ops

	// Timed reps: tracing off, nothing else running in the process.
	seconds := c.seconds
	if c.trace {
		seconds /= 2 // the rest of the run's time goes to the profiled reps and the probes
	}
	objects0, bytes0 := allocCounters()
	gcCPU0, cpu0, cycles0 := gcCounters()
	walls, rss, last, err := r.reps("rep", subj, atLeast(minReps, seconds))
	if err != nil {
		return nil, nil, err
	}
	objects1, bytes1 := allocCounters()
	gcCPU1, cpu1, cycles1 := gcCounters()
	if ref != nil {
		if err := sameModel(subj.first, ref.first); err != nil {
			return nil, nil, err
		}
	}

	n := float64(len(walls))
	q1, med, q3 := quartiles(walls)
	res.Reps = repStats{N: len(walls), WallS: walls, Q1S: q1, MedianS: med, Q3S: q3, IQRFrac: iqrFrac(walls)}
	ops := float64(subj.in.ops)
	objectsPerRep, bytesPerRep := float64(objects1-objects0)/n, float64(bytes1-bytes0)/n

	if !c.trace {
		// End-to-end metrics come only from a run in which nothing is traced.
		res.set("ops_per_s", ops/med)
		res.set("allocs_per_op", objectsPerRep/ops)
		res.set("alloc_bytes_per_op", bytesPerRep/ops)
		res.set("peak_rss_mb", median(rss))
		res.set("setup_s", median(res.SetupsS))
	}
	setCounts(res, last, subj.in.ops)
	events := float64(last.Report.EventsRun)
	res.set("sim.ns_per_event", med*1e9/events)
	res.set("sim.events_per_s", events/med)
	res.set("runtime.allocs_per_event", objectsPerRep/events)
	res.set("runtime.bytes_per_event", bytesPerRep/events)
	res.set("host.rep_iqr_frac", res.Reps.IQRFrac)
	res.set("host.warmup_frac", warmupWall.Seconds()/med-1)
	if cpu1 > cpu0 {
		res.set("runtime.gc_cpu_frac", (gcCPU1-gcCPU0)/(cpu1-cpu0))
	}
	res.set("runtime.gc_cycles", float64(cycles1-cycles0)/n)
	if !c.trace {
		return res, nil, nil
	}
	if ref != nil {
		res.set("trace.enabled_overhead_frac", med/median(refWalls)-1)
		res.set("trace.enabled_rss_frac", median(rss)/median(refRSS)-1)
	}

	// Profiled reps: the same simulation under runtime/pprof and a
	// goroutine sampler. Their timings feed only pprof_overhead_frac.
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, fmt.Errorf("start CPU profile: %w", err)
	}
	sampler := startGoroutineSampler()
	profiling := atLeast(2, profileSecs)
	if c.short {
		profiling = atLeast(1, 0)
	}
	profiled, _, _, err := r.reps("profiled", subj, profiling)
	res.set("runtime.goroutines_peak", float64(sampler.Stop()))
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		return nil, nil, err
	}
	setBudget(res, foldStacks(stacks))
	res.set("runtime.pprof_overhead_frac", median(profiled)/med-1)

	runProbes(res, spans, r.root, c.probeBudget)
	return res, stacks, nil
}

// setCounts records the exact counts of one rep, group (b) of the
// per-layer metrics.
func setCounts(res *result, out *output, ops int64) {
	r := out.Report
	res.set("model.virtual_s", r.VirtualTime.Seconds())
	res.set("sim.events", float64(r.EventsRun))
	res.set("sim.events_per_op", float64(r.EventsRun)/float64(ops))
	res.set("fabric.msgs", float64(r.Msgs))
	res.set("fabric.bytes", float64(r.Bytes))
	res.set("fabric.msgs_per_op", float64(r.Msgs)/float64(ops))
	if out.HasFabric {
		res.set("fabric.acks", float64(out.Fabric.Acks))
		res.set("fabric.handler_runs", float64(out.Fabric.HandlerRuns))
		res.set("fabric.credit_stall_vs", out.Fabric.CreditStall.Seconds())
	}
	res.set("core.finish_blocks", float64(r.FinishBlocks))
	res.set("core.reduce_rounds", float64(r.ReduceRounds))
	res.set("caf.spawns", float64(r.SpawnsSent))
	res.set("caf.copies", float64(r.Copies))
	res.set("workload.ra_mismatches", float64(out.Mismatches))
	if s := out.SLO; s.Requests > 0 {
		res.set("load.requests", float64(s.Requests))
		res.set("load.completed", float64(s.Completed))
		res.set("load.virtual_p50_us", s.P50.Seconds()*1e6)
		res.set("load.virtual_p99_us", s.P99.Seconds()*1e6)
		res.set("load.virtual_p999_us", s.P999.Seconds()*1e6)
		res.set("load.goodput_rps", s.GoodputRPS)
	}
}

// setBudget records the CPU budget, group (a) of the per-layer metrics.
func setBudget(res *result, b budget) {
	for _, l := range layers {
		res.set(l+".cpu_share", b.exclusive[l])
	}
	res.set("runtime.gc_bg_share", b.exclusive["gc_bg"])
	res.set("runtime.sched_share", b.exclusive["sched"])
	res.set("other.cpu_share", b.exclusive["other"])
	res.set("runtime.alloc_share", b.alloc)
	res.set("runtime.gc_share", b.gc)
	res.set("sim.handoff_share", b.handoff)
	res.set("sim.heap_share", b.heap)
	res.set("profile.samples", float64(b.samples))
}

// runProbes records group (c), one span per probe.
func runProbes(res *result, spans *spanLog, parent *span, budget time.Duration) {
	for _, p := range probeList {
		sp := spans.start(parent, "probe "+p.name())
		for name, v := range runProbe(p, budget) {
			res.set(name, v)
		}
		spans.end(sp)
	}
}

// printTable prints every metric of table by name with its unit.
func printTable(w io.Writer, res *result, table []metricDef) {
	fmt.Fprintf(w, "workload %s  seed %d  %s GOMAXPROCS=%d nproc=%d commit %s\n",
		res.Workload, res.Seed, res.Env.Go, res.Env.GOMAXPROCS, res.Env.NumCPU, res.Env.Commit)
	if res.Reps.N > 0 {
		fmt.Fprintf(w, "%d ops (%s) per rep; %d timed reps, wall s: q1 %.4f median %.4f q3 %.4f %v\n",
			res.OpsPerRep, res.Op, res.Reps.N, res.Reps.Q1S, res.Reps.MedianS, res.Reps.Q3S, res.Reps.WallS)
	}
	note := ""
	if res.noisy() {
		note = fmt.Sprintf("  UNRESOLVED (noisy host: rep IQR/median %.3f > %.2f)", res.Reps.IQRFrac, noisyIQRFrac)
	}
	for _, m := range table {
		v, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			fmt.Fprintf(w, "  %-32s %16s %s\n", m.Name, "n/a", m.Unit)
		case m.Timed:
			fmt.Fprintf(w, "  %-32s %16.6g %s%s\n", m.Name, v.Value, m.Unit, note)
		default:
			fmt.Fprintf(w, "  %-32s %16.6g %s\n", m.Name, v.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "correct %v: %d of %d operations failed\n", res.Failed == 0, res.Failed, res.Attempted)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
