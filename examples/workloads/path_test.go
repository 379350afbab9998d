package workloads

import (
	"reflect"
	"runtime"
	"testing"

	caf "caf2go"
	"caf2go/internal/load"
	"caf2go/internal/path"
	"caf2go/internal/prof"
)

// pathScenario runs one service scenario with path tracing enabled and
// returns its machine (for the path capture) and SLO.
type pathScenario struct {
	name string
	run  func() (*caf.Machine, load.SLO, Result, error)
}

func pathScenarios() []pathScenario {
	kv := func(name string, mod func(o *ServiceOpts, cfg *caf.Config)) pathScenario {
		return pathScenario{name: name, run: func() (*caf.Machine, load.SLO, Result, error) {
			var slo load.SLO
			var m *caf.Machine
			o := kvGoldenOpts(true)
			o.SLOOut = &slo
			cfg := caf.Config{Images: 8, Seed: 11, PathTracing: true}
			if mod != nil {
				mod(&o, &cfg)
			}
			res, err := KVService(cfg, o, CaptureMachine(&m))
			return m, slo, res, err
		}}
	}
	return []pathScenario{
		kv("kv-shipping", nil),
		kv("kv-locks", func(o *ServiceOpts, cfg *caf.Config) { o.Shipping = false }),
		kv("kv-shipping-coalesced", func(o *ServiceOpts, cfg *caf.Config) {
			cfg.Fabric.Coalescing = caf.Coalescing{MaxMsgs: 8, MaxBytes: 2048, FlushAfter: 5 * caf.Microsecond}
		}),
		kv("kv-replicated-crashed", func(o *ServiceOpts, cfg *caf.Config) {
			o.Replicated = true
			cfg.Fabric.Faults = &caf.FaultPlan{Crash: map[int]caf.Time{1: 150 * caf.Microsecond}}
			cfg.Replication = caf.ReplicationConfig{Enabled: true}
			cfg.FailureDetector = caf.FailureDetectorConfig{Enabled: true, Heartbeat: 2 * caf.Microsecond}
		}),
		{name: "agg-service", run: func() (*caf.Machine, load.SLO, Result, error) {
			var slo load.SLO
			var m *caf.Machine
			o := aggGoldenOpts(false)
			o.SLOOut = &slo
			res, err := AggService(caf.Config{Images: 8, Seed: 11, PathTracing: true},
				o, CaptureMachine(&m))
			return m, slo, res, err
		}},
	}
}

// TestPathExactness is the tentpole's core property test: for every
// completed request of every scenario, the critical-path buckets sum
// exactly to the Collector-measured latency, and exactly the completed
// requests carry a closed path.
func TestPathExactness(t *testing.T) {
	for _, sc := range pathScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			m, slo, _, err := sc.run()
			if err != nil {
				t.Fatal(err)
			}
			p := m.Profile()
			if p.Paths == nil {
				t.Fatal("path tracing enabled but profile has no path capture")
			}
			if mm := prof.PathMismatches(p); len(mm) > 0 {
				t.Fatalf("%d requests violate exactness; first: seq %d buckets sum %d ≠ latency %d",
					len(mm), mm[0].Seq, mm[0].Sum, mm[0].Latency)
			}
			completed := prof.CompletedPaths(p)
			if int64(len(completed)) != slo.Completed {
				t.Errorf("path capture closed %d requests, collector completed %d",
					len(completed), slo.Completed)
			}
			if got := int64(m.PathTracker().Finished()); got != slo.Completed {
				t.Errorf("tracker finished %d, collector completed %d", got, slo.Completed)
			}
			// Every completed request should have at least one span: its
			// issue initiated some traced op.
			for _, r := range completed {
				if len(r.Spans) == 0 {
					t.Errorf("request %d completed with no spans on its causal DAG", r.Seq)
					break
				}
			}
		})
	}
}

// TestPathTailLockWait pins the acceptance criterion: on kv-locks the
// dominant bucket of the top-decile (slowest 10%) requests is the lock
// wait — the serialization the paper's function-shipping contrast is
// about.
func TestPathTailLockWait(t *testing.T) {
	var sc pathScenario
	for _, s := range pathScenarios() {
		if s.name == "kv-locks" {
			sc = s
		}
	}
	m, _, _, err := sc.run()
	if err != nil {
		t.Fatal(err)
	}
	p := m.Profile()
	completed := prof.CompletedPaths(p)
	if len(completed) < 10 {
		t.Fatalf("only %d completed requests", len(completed))
	}
	decile := completed[len(completed)*9/10:]
	var buckets [path.NumBuckets]int64
	for _, r := range decile {
		for b, v := range r.Buckets {
			buckets[b] += v
		}
	}
	dom, best := path.Bucket(0), int64(0)
	for b, v := range buckets {
		if v > best {
			dom, best = path.Bucket(b), v
		}
	}
	if dom != path.LockWait {
		t.Errorf("top-decile dominant bucket = %s (%d ns), want lock_wait (%d ns)",
			dom, best, buckets[path.LockWait])
	}
	// The tail view must surface the same conclusion.
	bands := prof.Tail(p)
	if len(bands) == 0 {
		t.Fatal("tail produced no bands")
	}
	last := bands[len(bands)-1]
	if last.Dominant != "lock_wait" {
		t.Errorf("tail band %s dominant = %q, want lock_wait", last.Band, last.Dominant)
	}
}

// TestPathGOMAXPROCSEquivalence extends the GOMAXPROCS-equivalence sweep
// to the path capture: with tracing enabled, the full profile — spans,
// bucket decompositions, exemplars — must be bit-identical at every
// GOMAXPROCS of the sweep.
func TestPathGOMAXPROCSEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sc := range pathScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			baseM, baseSLO, baseRes, err := sc.run()
			if err != nil {
				t.Fatal(err)
			}
			baseProf := baseM.Profile()
			for _, procs := range gomaxprocsMx {
				prev := runtime.GOMAXPROCS(procs)
				m, slo, res, err := sc.run()
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("procs=%d: %v", procs, err)
				}
				if !reflect.DeepEqual(res, baseRes) || !reflect.DeepEqual(slo, baseSLO) {
					t.Errorf("procs=%d: Result/SLO diverged", procs)
				}
				pr := m.Profile()
				if !reflect.DeepEqual(pr.Paths, baseProf.Paths) {
					t.Errorf("procs=%d: path capture diverged from baseline", procs)
				}
				if !reflect.DeepEqual(pr, baseProf) {
					t.Errorf("procs=%d: profile diverged from baseline", procs)
				}
			}
		})
	}
}

// TestSLOMetricsGolden pins one KV row of the SLO-digest metrics export
// (satellite: the digest rides internal/metrics into profile exports).
// The literals are the pinned seed-11 kv-shipping numbers; a divergence
// means either determinism broke or the export changed shape.
func TestSLOMetricsGolden(t *testing.T) {
	var slo load.SLO
	var m *caf.Machine
	o := kvGoldenOpts(true)
	o.SLOOut = &slo
	if _, err := KVService(caf.Config{Images: 8, Seed: 11, Metrics: true}, o, CaptureMachine(&m)); err != nil {
		t.Fatal(err)
	}
	snap := m.Metrics().Snapshot()
	got := map[string]int64{}
	for _, fam := range snap.Families {
		if len(fam.Samples) == 1 && fam.Samples[0].Image == 0 {
			got[fam.Name] = fam.Samples[0].Value
		}
	}
	want := map[string]int64{
		"slo_requests":  slo.Requests,
		"slo_completed": slo.Completed,
		"slo_failed":    slo.Failed,
		"slo_p50_ns":    int64(slo.P50),
		"slo_p99_ns":    int64(slo.P99),
		"slo_p999_ns":   int64(slo.P999),
		"slo_mean_ns":   slo.MeanNS,
		"slo_lost":      0,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %d, want %d", name, got[name], w)
		}
	}
	// The golden pin proper: requests and quantiles of the seed-11 row.
	if slo.Requests != 96 || slo.Completed != 96 || slo.Failed != 0 {
		t.Errorf("seed-11 kv-shipping row moved: req=%d done=%d fail=%d (want 96/96/0)",
			slo.Requests, slo.Completed, slo.Failed)
	}
	if slo.P50 <= 0 || slo.P99 < slo.P50 {
		t.Errorf("quantiles not sane: p50=%d p99=%d", slo.P50, slo.P99)
	}
}
