package workloads

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	caf "caf2go"
	"caf2go/internal/load"
)

// -update rewrites the golden files from the current runtime:
//
//	go test ./examples/workloads -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden report files")

// goldenFile is the committed shape of one pinned run.
type goldenFile struct {
	Report caf.Report
	Check  string
}

// goldenCase is one pinned workload. Run applies mod to the case's base
// config before launching, so the same case can be re-run with
// instrumentation layered on; the golden files themselves are always
// produced with the identity mod.
type goldenCase struct {
	Name string
	Run  func(mod func(*caf.Config), opts ...RunOpt) (Result, error)
}

// noMod is the identity config mutator: the pinned legacy configuration.
func noMod(*caf.Config) {}

// goldenCases returns every examples/ program at small scale. The suite
// pins the FULL caf.Report (virtual time, message/byte counts, spawn and
// finish counters, and the coalescing/recovery counters) bit-for-bit:
// any runtime change that perturbs scheduling, traffic, or accounting of
// the legacy path shows up as a golden diff. Rows with a Coalescing
// config additionally pin the adaptive-coalescing path, new counters
// included.
func goldenCases() []goldenCase {
	coal := caf.Coalescing{MaxMsgs: 8, MaxBytes: 2048, FlushAfter: 5 * caf.Microsecond}
	return []goldenCase{
		{"quickstart", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 8, Seed: 42}
			mod(&cfg)
			return Quickstart(cfg, opts...)
		}},
		{"quickstart-coalesced", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 8, Seed: 42, Fabric: caf.FabricConfig{Coalescing: coal}}
			mod(&cfg)
			return Quickstart(cfg, opts...)
		}},
		{"quickstart-coalesced-tiny", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			tiny := caf.Coalescing{MaxMsgs: 2, MaxBytes: 256, FlushAfter: 2 * caf.Microsecond}
			cfg := caf.Config{Images: 8, Seed: 42, Fabric: caf.FabricConfig{Coalescing: tiny}}
			mod(&cfg)
			return Quickstart(cfg, opts...)
		}},
		{"stencil-overlap", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 8, Seed: 7}
			mod(&cfg)
			return Stencil(cfg, 32, 5, true, opts...)
		}},
		{"stencil-blocking", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 8, Seed: 7}
			mod(&cfg)
			return Stencil(cfg, 32, 5, false, opts...)
		}},
		{"worksteal-getput", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 4, Seed: 3}
			mod(&cfg)
			return Worksteal(cfg, 16, 4, false, opts...)
		}},
		{"worksteal-shipping", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 4, Seed: 3}
			mod(&cfg)
			return Worksteal(cfg, 16, 4, true, opts...)
		}},
		{"worksteal-shipping-coalesced", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 4, Seed: 3, Fabric: caf.FabricConfig{Coalescing: coal}}
			mod(&cfg)
			return Worksteal(cfg, 16, 4, true, opts...)
		}},
		{"pipeline", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 6, Seed: 5}
			mod(&cfg)
			return Pipeline(cfg, 32, opts...)
		}},
		{"stencil-continuation", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 8, Seed: 7}
			mod(&cfg)
			return StencilContinuation(cfg, 32, 5, opts...)
		}},
		{"pipeline-hop-blocking", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 6, Seed: 5}
			mod(&cfg)
			return PipelineHopBlocking(cfg, 32, opts...)
		}},
		{"pipeline-continuation", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 6, Seed: 5}
			mod(&cfg)
			return PipelineContinuation(cfg, 32, opts...)
		}},
		{"termination-finish", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 8, Seed: 7}
			mod(&cfg)
			return TerminationFinish(cfg, 2, 3, opts...)
		}},
		{"termination-nowait", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 8, Seed: 7, FinishNoWait: true}
			mod(&cfg)
			return TerminationFinish(cfg, 2, 3, opts...)
		}},
		{"termination-barrier", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 8, Seed: 7}
			mod(&cfg)
			return TerminationBarrier(cfg, 2, 3, opts...)
		}},
		{"termination-finish-coalesced", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 8, Seed: 7, Fabric: caf.FabricConfig{Coalescing: coal}}
			mod(&cfg)
			return TerminationFinish(cfg, 2, 3, opts...)
		}},
		{"transpose", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 4, Seed: 1}
			mod(&cfg)
			return Transpose(cfg, 16, opts...)
		}},
		{"kv-locks", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 8, Seed: 11}
			mod(&cfg)
			return KVService(cfg, kvGoldenOpts(false), opts...)
		}},
		{"kv-shipping", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 8, Seed: 11}
			mod(&cfg)
			return KVService(cfg, kvGoldenOpts(true), opts...)
		}},
		{"kv-shipping-coalesced", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 8, Seed: 11, Fabric: caf.FabricConfig{Coalescing: coal}}
			mod(&cfg)
			return KVService(cfg, kvGoldenOpts(true), opts...)
		}},
		{"kv-shipping-mmpp", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			// Pins the bursty MMPP arrival generator end to end: same
			// mean rate as kv-shipping, very different tail.
			cfg := caf.Config{Images: 8, Seed: 11}
			mod(&cfg)
			o := kvGoldenOpts(true)
			o.Arrival = load.MMPP
			return KVService(cfg, o, opts...)
		}},
		{"kv-replicated", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			// Healthy replicated run: pins the mirror-write traffic and
			// the unchanged SLO (epoch stays 0, nothing is replayed).
			cfg := caf.Config{
				Images:          8,
				Seed:            11,
				Replication:     caf.ReplicationConfig{Enabled: true},
				FailureDetector: caf.FailureDetectorConfig{Enabled: true, Heartbeat: 2 * caf.Microsecond},
			}
			mod(&cfg)
			o := kvGoldenOpts(true)
			o.Replicated = true
			return KVService(cfg, o, opts...)
		}},
		{"kv-replicated-crash", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			// Server rank 1 dies mid-traffic; the epoch agreement commits,
			// rank 2's mirror is promoted, and every stranded request is
			// replayed instead of lost. Pins the whole recovery path:
			// zero failures, replay count, failover count, epoch stats.
			cfg := caf.Config{
				Images: 8,
				Seed:   11,
				Fabric: caf.FabricConfig{Faults: &caf.FaultPlan{
					Seed:  11,
					Crash: map[int]caf.Time{1: 80 * caf.Microsecond},
				}},
				Replication:     caf.ReplicationConfig{Enabled: true},
				FailureDetector: caf.FailureDetectorConfig{Enabled: true, Heartbeat: 2 * caf.Microsecond},
			}
			mod(&cfg)
			o := kvGoldenOpts(true)
			o.Replicated = true
			return KVService(cfg, o, opts...)
		}},
		{"agg-service", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			cfg := caf.Config{Images: 8, Seed: 11}
			mod(&cfg)
			return AggService(cfg, aggGoldenOpts(false), opts...)
		}},
		{"agg-service-crashed", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			// Server rank 1 dies mid-traffic; the service fails over
			// sub-queries to surviving shards and the resilient finish
			// surfaces the typed error. Pins request outcomes, failover
			// counts, the SLO digest through failure, and the machine's
			// failure counters.
			cfg := caf.Config{
				Images: 8,
				Seed:   11,
				Fabric: caf.FabricConfig{Faults: &caf.FaultPlan{
					Seed:  11,
					Crash: map[int]caf.Time{1: 150 * caf.Microsecond},
				}},
				FailureDetector: caf.FailureDetectorConfig{Enabled: true, Heartbeat: 2 * caf.Microsecond},
			}
			mod(&cfg)
			return AggService(cfg, aggGoldenOpts(true), opts...)
		}},
		{"crashed-finish", func(mod func(*caf.Config), opts ...RunOpt) (Result, error) {
			// Image 1's NIC dies mid-task-graph; the detector declares
			// it dead a heartbeat+lease later and the resilient finish
			// surfaces a typed error. Pins the whole failure path:
			// declaration time, charge-off accounting, and counters.
			cfg := caf.Config{
				Images: 8,
				Seed:   7,
				Fabric: caf.FabricConfig{Faults: &caf.FaultPlan{
					Seed:  7,
					Crash: map[int]caf.Time{1: 100 * caf.Microsecond},
				}},
				FailureDetector: caf.FailureDetectorConfig{Enabled: true},
			}
			mod(&cfg)
			return CrashedFinish(cfg, 2, 3, opts...)
		}},
	}
}

// TestGoldenReports executes every example workload at small scale and
// compares the full report against the committed golden file. This is
// the regression net under the runtime: legacy-path rows must stay
// bit-identical across any change that claims to be off by default.
func TestGoldenReports(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.Name, func(t *testing.T) {
			res, err := tc.Run(noMod)
			if err != nil {
				t.Fatalf("workload failed: %v", err)
			}
			got := goldenFile{Report: res.Report, Check: res.Check}
			path := filepath.Join("testdata", tc.Name+".golden.json")

			if *update {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", path)
				return
			}

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			var want goldenFile
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("corrupt golden file %s: %v", path, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("report diverged from %s:\n got: %s\nwant: %s",
					path, mustJSON(got), mustJSON(want))
			}
		})
	}
}

// TestGoldenDeterminism re-runs one workload per program and demands the
// identical Result, independent of goldens — a same-process determinism
// check that stays meaningful even right after -update.
func TestGoldenDeterminism(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.Name, func(t *testing.T) {
			a, err := tc.Run(noMod)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tc.Run(noMod)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("same-config runs diverged:\n 1st: %s\n 2nd: %s",
					mustJSON(a), mustJSON(b))
			}
		})
	}
}

// gomaxprocsMx is the determinism-equivalence sweep: single- and
// multi-core Go scheduling must be invisible in every result. There is
// deliberately no -update path for any of it: a run that differs with
// GOMAXPROCS is a bug by definition, never a new golden.
var gomaxprocsMx = []int{1, 2, 8}

// TestGoldenGOMAXPROCSEquivalence runs every golden workload at each
// GOMAXPROCS of the sweep and demands three layers of bit-identity:
//
//  1. the committed golden file (the plain Report must match the exact
//     pinned bytes),
//  2. the full instrumented Result (Report including the metrics
//     snapshot) against an in-process baseline,
//  3. the execution trace and lifecycle profile, event by event.
func TestGoldenGOMAXPROCSEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range goldenCases() {
		t.Run(tc.Name, func(t *testing.T) {
			// Layer 2/3 baseline: tracing + metrics on.
			instrument := func(cfg *caf.Config) {
				cfg.TraceCapacity = 1 << 15
				cfg.Metrics = true
				cfg.PathTracing = true
			}
			var baseM *caf.Machine
			base, err := tc.Run(instrument, CaptureMachine(&baseM))
			if err != nil {
				t.Fatal(err)
			}
			baseTrace := baseM.Trace().Events()
			baseProf := baseM.Profile()

			// Layer 1 reference: the committed golden file.
			var want goldenFile
			data, err := os.ReadFile(filepath.Join("testdata", tc.Name+".golden.json"))
			if err != nil {
				t.Fatalf("missing golden file: %v", err)
			}
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}

			for _, procs := range gomaxprocsMx {
				name := fmt.Sprintf("procs=%d", procs)
				prev := runtime.GOMAXPROCS(procs)

				// Layer 1: plain config vs committed golden.
				res, err := tc.Run(noMod)
				if err != nil {
					runtime.GOMAXPROCS(prev)
					t.Fatalf("%s: %v", name, err)
				}
				got := goldenFile{Report: res.Report, Check: res.Check}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: report diverged from committed golden:\n got: %s\nwant: %s",
						name, mustJSON(got), mustJSON(want))
				}

				// Layers 2+3: instrumented run vs baseline.
				var m *caf.Machine
				ires, err := tc.Run(instrument, CaptureMachine(&m))
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(ires, base) {
					t.Errorf("%s: instrumented Result diverged from baseline:\n got: %s\nwant: %s",
						name, mustJSON(ires), mustJSON(base))
				}
				if tr := m.Trace().Events(); !reflect.DeepEqual(tr, baseTrace) {
					t.Errorf("%s: trace diverged from baseline (%d vs %d events)",
						name, len(tr), len(baseTrace))
				}
				if pr := m.Profile(); !reflect.DeepEqual(pr, baseProf) {
					t.Errorf("%s: lifecycle profile diverged from baseline", name)
				}
			}
		})
	}
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%+v", v)
	}
	return string(data)
}
