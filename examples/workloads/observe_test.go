package workloads

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	caf "caf2go"
	"caf2go/internal/load"
	"caf2go/internal/prof"
	"caf2go/internal/trace"
)

// metricsCases are the runs whose metric exports are pinned byte-for-byte
// under testdata/: a coalesced quickstart (fabric + coalescing + finish
// families) and the fault-injected crashed finish (failure families).
func metricsCases() []struct {
	Name string
	Run  func() (Result, error)
} {
	coal := caf.Coalescing{MaxMsgs: 8, MaxBytes: 2048, FlushAfter: 5 * caf.Microsecond}
	return []struct {
		Name string
		Run  func() (Result, error)
	}{
		{"quickstart-coalesced", func() (Result, error) {
			return Quickstart(caf.Config{Images: 8, Seed: 42, Fabric: caf.FabricConfig{Coalescing: coal}, Metrics: true})
		}},
		{"crashed-finish", func() (Result, error) {
			return CrashedFinish(caf.Config{
				Images:  8,
				Seed:    7,
				Metrics: true,
				Fabric: caf.FabricConfig{Faults: &caf.FaultPlan{
					Seed:  7,
					Crash: map[int]caf.Time{1: 100 * caf.Microsecond},
				}},
				FailureDetector: caf.FailureDetectorConfig{Enabled: true},
			}, 2, 3)
		}},
	}
}

// TestMetricsSnapshotDeterminism runs each metrics case twice and demands
// byte-identical Prometheus and JSON exports, then pins the Prometheus
// text against the committed golden rows (refresh with -update).
func TestMetricsSnapshotDeterminism(t *testing.T) {
	for _, tc := range metricsCases() {
		t.Run(tc.Name, func(t *testing.T) {
			export := func() (promText, jsonText []byte) {
				res, err := tc.Run()
				if err != nil {
					t.Fatalf("workload failed: %v", err)
				}
				if res.Report.Metrics == nil {
					t.Fatal("Metrics: true run produced a nil Report.Metrics")
				}
				var pw, jw bytes.Buffer
				if err := res.Report.Metrics.WritePrometheus(&pw); err != nil {
					t.Fatal(err)
				}
				if err := res.Report.Metrics.WriteJSON(&jw); err != nil {
					t.Fatal(err)
				}
				return pw.Bytes(), jw.Bytes()
			}
			prom1, json1 := export()
			prom2, json2 := export()
			if !bytes.Equal(prom1, prom2) {
				t.Errorf("same-seed runs produced different Prometheus exports:\n1st:\n%s\n2nd:\n%s", prom1, prom2)
			}
			if !bytes.Equal(json1, json2) {
				t.Errorf("same-seed runs produced different JSON exports")
			}

			path := filepath.Join("testdata", tc.Name+".metrics.prom")
			if *update {
				if err := os.WriteFile(path, prom1, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden metrics file (run with -update to create): %v", err)
			}
			if !bytes.Equal(prom1, want) {
				t.Errorf("Prometheus export diverged from %s:\ngot:\n%s\nwant:\n%s", path, prom1, want)
			}
		})
	}
}

// TestProfileStencilAcceptance drives the traced stencil-overlap run
// through the profile pipeline end to end — Machine.WriteProfile,
// prof.Read, and the cafprof analyses — and checks the issue's
// acceptance bar: latency histograms for all four completion levels,
// ≥ 95% of parked virtual time attributed to specific op IDs, and a
// rendered report carrying every section.
func TestProfileStencilAcceptance(t *testing.T) {
	var m *caf.Machine
	res, err := Stencil(caf.Config{Images: 8, Seed: 7, TraceCapacity: 1 << 16, Metrics: true},
		32, 5, true, CaptureMachine(&m))
	if err != nil {
		t.Fatal(err)
	}
	_ = res

	// Round-trip through the serialized form, as cafprof would see it.
	var buf bytes.Buffer
	if err := m.WriteProfile(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := prof.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Dropped) > 0 {
		t.Fatalf("capture truncated (%v): raise TraceCapacity", p.Dropped)
	}
	if len(p.Ops) == 0 || len(p.Blocks) == 0 {
		t.Fatalf("profile empty: %d ops, %d blocks", len(p.Ops), len(p.Blocks))
	}

	// Per-stage latency histograms for all four completion levels of the
	// halo-exchange copies.
	stages := map[trace.Stage]bool{}
	for _, sl := range prof.StageLatencies(p) {
		if sl.Kind == "copy" && sl.Count > 0 {
			stages[sl.Stage] = true
			if len(sl.Buckets) == 0 {
				t.Errorf("copy/%v: no histogram buckets", sl.Stage)
			}
		}
	}
	for st := trace.StageInit; st < trace.NumStages; st++ {
		if !stages[st] {
			t.Errorf("no copy latency histogram for stage %v", st)
		}
	}

	// Blocked-time attribution: ≥ 95% of parked virtual time names ops.
	if ratio := prof.AttributionRatio(p); ratio < 0.95 {
		t.Errorf("attribution ratio %.3f < 0.95", ratio)
	}
	rows := prof.Blockers(p, 5)
	if len(rows) == 0 {
		t.Fatal("no blocker rows")
	}
	for _, r := range rows {
		if r.Attributed > 0 && len(r.Top) == 0 {
			t.Errorf("%s: attributed time but no top blockers", r.Prim)
		}
	}

	// The rendered report carries every section cafprof prints.
	var out bytes.Buffer
	prof.Render(&out, p, prof.RenderOpts{})
	for _, section := range []string{
		"completion-stage latencies",
		"blocked time by primitive",
		"per-image utilization",
	} {
		if !strings.Contains(out.String(), section) {
			t.Errorf("rendered report missing %q section:\n%s", section, out.String())
		}
	}
}

// TestProfileFinishRoundsBound checks the per-epoch finish round counts
// against Theorem 1's ≤ L+1 bound on the quickstart workload, whose
// finish block contains a single-hop spawn (L = 1, so ≤ 2 rounds), and
// verifies the rounds reach the profile.
func TestProfileFinishRoundsBound(t *testing.T) {
	var m *caf.Machine
	if _, err := Quickstart(caf.Config{Images: 8, Seed: 42, TraceCapacity: 1 << 16},
		CaptureMachine(&m)); err != nil {
		t.Fatal(err)
	}
	p := m.Profile()
	s := prof.FinishRounds(p)
	if s.Epochs == 0 {
		t.Fatal("no finish epochs recorded")
	}
	const longestSpawnChain = 1
	if s.MaxRounds > longestSpawnChain+1 {
		t.Errorf("finish used %d rounds, Theorem 1 bound is %d", s.MaxRounds, longestSpawnChain+1)
	}
	for _, fr := range p.Finishes {
		if fr.Rounds != len(fr.RoundAt) {
			t.Errorf("img %d: Rounds=%d but %d round timestamps", fr.Img, fr.Rounds, len(fr.RoundAt))
		}
		if fr.End < fr.Start {
			t.Errorf("img %d: detection ended before it began", fr.Img)
		}
	}
}

// TestObservabilityDoesNotPerturb re-runs each workload with every
// observability switch on alone and with all three together, and demands
// the simulation outcome — virtual time, traffic, counters, checksum and,
// for the services, the SLO digest — be identical to the uninstrumented
// run. This is the zero-cost contract: observability may only add fields
// to the report, never change the machine's behavior.
func TestObservabilityDoesNotPerturb(t *testing.T) {
	kv := func(shipping bool) func(caf.Config, *load.SLO) (Result, error) {
		return func(cfg caf.Config, slo *load.SLO) (Result, error) {
			cfg.Images, cfg.Seed = 8, 11
			o := kvGoldenOpts(shipping)
			o.SLOOut = slo
			return KVService(cfg, o)
		}
	}
	modes := []struct {
		name string
		on   func(*caf.Config)
	}{
		{"trace", func(cfg *caf.Config) { cfg.TraceCapacity = 1 << 16 }},
		{"metrics", func(cfg *caf.Config) { cfg.Metrics = true }},
		{"paths", func(cfg *caf.Config) { cfg.PathTracing = true }},
		{"all", func(cfg *caf.Config) { cfg.TraceCapacity, cfg.Metrics, cfg.PathTracing = 1<<16, true, true }},
	}
	for _, tc := range []struct {
		name string
		run  func(cfg caf.Config, slo *load.SLO) (Result, error)
	}{
		{"stencil-overlap", func(cfg caf.Config, _ *load.SLO) (Result, error) {
			cfg.Images, cfg.Seed = 8, 7
			return Stencil(cfg, 32, 5, true)
		}},
		{"quickstart", func(cfg caf.Config, _ *load.SLO) (Result, error) {
			cfg.Images, cfg.Seed = 8, 42
			return Quickstart(cfg)
		}},
		{"worksteal-shipping", func(cfg caf.Config, _ *load.SLO) (Result, error) {
			cfg.Images, cfg.Seed = 4, 3
			return Worksteal(cfg, 16, 4, true)
		}},
		{"kv-shipping", kv(true)},
		{"kv-locks", kv(false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var plainSLO load.SLO
			plain, err := tc.run(caf.Config{}, &plainSLO)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range modes {
				t.Run(mode.name, func(t *testing.T) {
					var cfg caf.Config
					mode.on(&cfg)
					var slo load.SLO
					instr, err := tc.run(cfg, &slo)
					if err != nil {
						t.Fatal(err)
					}
					// Strip the observability-only additions before comparing.
					instr.Report.Metrics = nil
					instr.Report.TraceDropped = nil
					if !reflect.DeepEqual(plain, instr) {
						t.Errorf("instrumentation perturbed the run:\nplain: %s\ninstr: %s",
							mustJSON(plain), mustJSON(instr))
					}
					if slo.Digest() != plainSLO.Digest() {
						t.Errorf("SLO digest changed:\nplain: %s\ninstr: %s", plainSLO.Digest(), slo.Digest())
					}
				})
			}
		})
	}
}
