package main

import "encoding/json"

// metricDef declares one metric the benchmark emits. The tables below are
// the single source: `-manifest` prints BENCHMARK.json from them and the
// unit tests hold the committed file and every run's output against them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Exact marks a model output or a count made by the program: two runs
	// of one commit and seed must agree bit for bit, and -compare exits
	// non-zero when they do not.
	Exact bool
	// Timed marks a reading of the host's clock: it is UNRESOLVED, not a
	// reading, when the run's reps spread wider than noisyIQRFrac.
	Timed bool
}

const (
	runSeconds   = 15   // BENCHMARK.json run_seconds: how long the timed reps of one run last
	noisyIQRFrac = 0.10 // host metrics of a run whose reps spread wider than this are UNRESOLVED
)

// End-to-end: what someone running a simulation sees. All host-side;
// model outputs (virtual time, latency quantiles) are exact per-layer
// rows because a bound of zero cannot be expressed across seeds.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25, Timed: true},
	{Name: "allocs_per_op", Unit: "objects/op", Better: "lower", Bound: 0.02},
	{Name: "alloc_bytes_per_op", Unit: "B/op", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Timed: true},
}

func lower(unit string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func exact(unit string, names ...string) []metricDef {
	out := lower(unit, names...)
	for i := range out {
		out[i].Exact = true
	}
	return out
}

func timed(defs ...metricDef) []metricDef {
	for i := range defs {
		defs[i].Timed = true
	}
	return defs
}

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// Per-layer, in three groups by where the number comes from.
var (
	// (a) the CPU budget folded from a profile of the traced reps.
	// Exclusive rows: they sum to 1 per workload.
	exclusiveShares = lower("share", "sim.cpu_share", "fabric.cpu_share", "rt.cpu_share", "collect.cpu_share",
		"core.cpu_share", "caf.cpu_share", "load.cpu_share", "trace.cpu_share", "workload.cpu_share",
		"runtime.gc_bg_share", "runtime.sched_share", "other.cpu_share")
	budgetMetrics = concat(
		exclusiveShares,
		// overlapping cuts
		lower("share", "runtime.alloc_share", "runtime.gc_share", "sim.handoff_share", "sim.heap_share"),
		timed(lower("frac", "runtime.pprof_overhead_frac", "host.warmup_frac")...),
		lower("frac", "host.rep_iqr_frac", "runtime.gc_cpu_frac"),
		lower("count", "runtime.gc_cycles", "runtime.goroutines_peak"),
		[]metricDef{{Name: "profile.samples", Unit: "count", Better: "higher"}},
	)

	// (b) counts per rep read from caf.Report, Machine.FabricStats and SLO.
	countMetrics = concat(
		exact("virtual_s", "model.virtual_s", "fabric.credit_stall_vs"),
		exact("virtual_us", "load.virtual_p50_us", "load.virtual_p99_us", "load.virtual_p999_us"),
		exact("count", "sim.events", "fabric.msgs", "fabric.bytes", "fabric.acks", "fabric.handler_runs",
			"core.finish_blocks", "core.reduce_rounds", "caf.spawns", "caf.copies",
			"load.requests", "load.completed", "workload.ra_mismatches"),
		exact("events/op", "sim.events_per_op"),
		exact("msgs/op", "fabric.msgs_per_op"),
		[]metricDef{{Name: "load.goodput_rps", Unit: "req/virtual_s", Better: "higher", Exact: true}},
		timed(metricDef{Name: "sim.ns_per_event", Unit: "ns/event", Better: "lower"},
			metricDef{Name: "sim.events_per_s", Unit: "events/s", Better: "higher"}),
		lower("objects/event", "runtime.allocs_per_event"),
		lower("B/event", "runtime.bytes_per_event"),
		timed(lower("frac", "trace.enabled_overhead_frac")...),
		lower("frac", "trace.enabled_rss_frac"),
	)

	// (c) layer probes: one layer's public API driven alone.
	probeMetrics = func() []metricDef {
		var out []metricDef
		for _, p := range probeList {
			if p.ns != "" {
				unit := p.nsUnit
				if unit == "" {
					unit = "ns/call"
				}
				out = append(out, metricDef{Name: p.ns, Unit: unit, Better: "lower"})
			}
			if p.allocs != "" {
				out = append(out, metricDef{Name: p.allocs, Unit: "objects/call", Better: "lower"})
			}
			if p.events != "" {
				out = append(out, metricDef{Name: p.events, Unit: "events/call", Better: "lower"})
			}
			if p.perSecond != "" {
				out = append(out, metricDef{Name: p.perSecond, Unit: p.perSecondUnit, Better: "higher"})
			}
		}
		return out
	}()

	perLayer = concat(budgetMetrics, countMetrics, probeMetrics)

	// unitOf holds every declared metric's unit, by name.
	unitOf = func() map[string]string {
		units := map[string]string{}
		for _, m := range concat(endToEnd, perLayer) {
			units[m.Name] = m.Unit
		}
		return units
	}()
)

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
		Why    string   `json:"why,omitempty"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadList {
		doc.Workloads = append(doc.Workloads, entry{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		doc.EndToEnd = append(doc.EndToEnd, entry{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, entry{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
