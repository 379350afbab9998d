package workloads

import (
	"reflect"
	"runtime"
	"testing"

	caf "caf2go"
	"caf2go/internal/prof"
	"caf2go/internal/sim"
)

// TestContinuationMatchesBlockingEquivalent pins the continuation API's
// central promise: registering callbacks instead of parking is a pure
// re-expression of the same synchronization. The PollSet-driven stencil
// must produce a caf.Report bit-identical to the cofence-overlapped
// variant (identical wire traffic, identical makespan, identical event
// count), and the continuation pipeline must compute the identical
// checksum as its blocking baseline.
func TestContinuationMatchesBlockingEquivalent(t *testing.T) {
	cofence, err := Stencil(caf.Config{Images: 8, Seed: 7}, 32, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := StencilContinuation(caf.Config{Images: 8, Seed: 7}, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cofence.Report, cont.Report) {
		t.Errorf("continuation stencil report diverged from cofence variant:\ncofence: %s\ncont:    %s",
			mustJSON(cofence.Report), mustJSON(cont.Report))
	}
	if cofence.Check != cont.Check {
		t.Errorf("checksums diverged: cofence %s, continuation %s", cofence.Check, cont.Check)
	}

	hop, err := PipelineHopBlocking(caf.Config{Images: 6, Seed: 5}, 32)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := PipelineContinuation(caf.Config{Images: 6, Seed: 5}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if hop.Check != cp.Check {
		t.Errorf("pipeline checksums diverged: blocking %s, continuation %s", hop.Check, cp.Check)
	}
	if cp.Report.VirtualTime >= hop.Report.VirtualTime {
		t.Errorf("continuation pipeline makespan %d not below stop-and-forward baseline %d",
			cp.Report.VirtualTime, hop.Report.VirtualTime)
	}
}

// TestContinuationDeterminismAcrossGOMAXPROCS re-runs each
// continuation-driven workload under different host parallelism and
// demands bit-identical Results: callback firing rides the deterministic
// engine order, so host scheduling must be invisible.
func TestContinuationDeterminismAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct {
		name string
		run  func() (Result, error)
	}{
		{"stencil-continuation", func() (Result, error) {
			return StencilContinuation(caf.Config{Images: 8, Seed: 7}, 32, 5)
		}},
		{"pipeline-continuation", func() (Result, error) {
			return PipelineContinuation(caf.Config{Images: 6, Seed: 5}, 32)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var base Result
			for i, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				res, err := tc.run()
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					base = res
					continue
				}
				if !reflect.DeepEqual(base, res) {
					t.Errorf("GOMAXPROCS=%d diverged from GOMAXPROCS=1:\n1: %s\n%d: %s",
						procs, mustJSON(base), procs, mustJSON(res))
				}
			}
		})
	}
}

// mainBlockedShare computes the fraction of the run's aggregate main-
// strand virtual time spent parked, from a traced machine's profile.
func mainBlockedShare(t *testing.T, m *caf.Machine, rep caf.Report) float64 {
	t.Helper()
	p := m.Profile()
	if len(p.Dropped) > 0 {
		t.Fatalf("capture truncated: %v", p.Dropped)
	}
	var blocked sim.Time
	for _, u := range prof.Utilization(p) {
		blocked += u.MainBlocked
	}
	return float64(blocked) / float64(sim.Time(p.Images)*p.Duration)
}

// TestContinuationLowersBlockedShare is the issue's acceptance check in
// test form: at identical numeric results, the continuation-driven
// stencil and pipeline must spend a materially smaller share of their
// main strands' virtual time parked than the blocking variants.
func TestContinuationLowersBlockedShare(t *testing.T) {
	trace := func(cfg caf.Config) caf.Config {
		cfg.TraceCapacity = 1 << 16
		return cfg
	}
	type pair struct {
		name                string
		blocking, continued func(m **caf.Machine) (Result, error)
	}
	for _, p := range []pair{
		{
			name: "stencil",
			blocking: func(m **caf.Machine) (Result, error) {
				return Stencil(trace(caf.Config{Images: 8, Seed: 7}), 32, 5, false, CaptureMachine(m))
			},
			continued: func(m **caf.Machine) (Result, error) {
				return StencilContinuation(trace(caf.Config{Images: 8, Seed: 7}), 32, 5, CaptureMachine(m))
			},
		},
		{
			name: "pipeline",
			blocking: func(m **caf.Machine) (Result, error) {
				return PipelineHopBlocking(trace(caf.Config{Images: 6, Seed: 5}), 32, CaptureMachine(m))
			},
			continued: func(m **caf.Machine) (Result, error) {
				return PipelineContinuation(trace(caf.Config{Images: 6, Seed: 5}), 32, CaptureMachine(m))
			},
		},
	} {
		t.Run(p.name, func(t *testing.T) {
			var mb, mc *caf.Machine
			rb, err := p.blocking(&mb)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := p.continued(&mc)
			if err != nil {
				t.Fatal(err)
			}
			if rb.Check != rc.Check {
				t.Fatalf("variants computed different answers: blocking %s, continuation %s",
					rb.Check, rc.Check)
			}
			sb := mainBlockedShare(t, mb, rb.Report)
			sc := mainBlockedShare(t, mc, rc.Report)
			t.Logf("%s: blocked share blocking=%.3f continuation=%.3f", p.name, sb, sc)
			if sc >= sb {
				t.Errorf("continuation blocked share %.3f not below blocking %.3f", sc, sb)
			}
		})
	}
}

// TestContinuationStageOrdering pins the lifecycle log's stage-order
// invariant on the continuation workloads under tracing and coalescing:
// the coalescing flush path must not stamp a local-data transition after
// an op's record has been closed (the out-of-stage-order race the
// OpStage guard exists to catch).
func TestContinuationStageOrdering(t *testing.T) {
	coal := caf.Coalescing{MaxMsgs: 8, MaxBytes: 2048, FlushAfter: 5 * caf.Microsecond}
	for _, tc := range []struct {
		name string
		run  func(m **caf.Machine) (Result, error)
	}{
		{"stencil-continuation-coalesced", func(m **caf.Machine) (Result, error) {
			return StencilContinuation(caf.Config{Images: 8, Seed: 7, TraceCapacity: 1 << 16, Fabric: caf.FabricConfig{Coalescing: coal}},
				32, 5, CaptureMachine(m))
		}},
		{"pipeline-continuation-coalesced", func(m **caf.Machine) (Result, error) {
			return PipelineContinuation(caf.Config{Images: 6, Seed: 5, TraceCapacity: 1 << 16, Fabric: caf.FabricConfig{Coalescing: coal}},
				32, CaptureMachine(m))
		}},
		{"quickstart-coalesced", func(m **caf.Machine) (Result, error) {
			return Quickstart(caf.Config{Images: 8, Seed: 42, TraceCapacity: 1 << 16, Fabric: caf.FabricConfig{Coalescing: coal}},
				CaptureMachine(m))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m *caf.Machine
			if _, err := tc.run(&m); err != nil {
				t.Fatal(err)
			}
			if n := m.Lifecycle().StageOrderViolations(); n != 0 {
				t.Errorf("%d stage-order violations in the lifecycle log", n)
			}
		})
	}
}
