package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"caf2go/internal/ra"
	"caf2go/internal/sim"

	caf "caf2go"
)

var sweepSeeds = []int64{1, 2, 3}
var sweepRates = []float64{0, 0.05, 0.2}

// TestChaosSweep is the acceptance sweep: every workload × seed × rate
// combination (54 ≥ the required 20) must terminate, verify its results
// against ground truth, and never release a finish early — the workload
// Run functions fail on any of those. At the aggressive rate the sweep
// must actually have injected and recovered from faults, or it proved
// nothing.
func TestChaosSweep(t *testing.T) {
	perRate := map[float64]caf.Report{}
	for _, w := range Workloads() {
		for _, seed := range sweepSeeds {
			for _, rate := range sweepRates {
				w, seed, rate := w, seed, rate
				t.Run(fmt.Sprintf("%s/seed=%d/rate=%g", w.Name, seed, rate), func(t *testing.T) {
					out, err := w.Run(caf.Config{Seed: seed, Fabric: caf.FabricConfig{Faults: Plan(seed, rate)}})
					if err != nil {
						t.Fatalf("workload failed under faults: %v", err)
					}
					r := perRate[rate]
					r.Retransmits += out.Report.Retransmits
					r.DupsDropped += out.Report.DupsDropped
					r.FaultsInjected += out.Report.FaultsInjected
					perRate[rate] = r
				})
			}
		}
	}
	if r := perRate[0.2]; r.FaultsInjected == 0 || r.Retransmits == 0 {
		t.Errorf("aggressive sweep injected %d faults, %d retransmits — recovery never exercised",
			r.FaultsInjected, r.Retransmits)
	}
	if r := perRate[0]; r.Retransmits != 0 {
		t.Errorf("rate-0 plan caused %d retransmits; timeouts are too tight for fault-free runs", r.Retransmits)
	}
}

// TestFaultsNilStaysClean pins the zero-overhead contract: with
// Config.Fabric.Faults nil the legacy exactly-once fabric runs and every
// recovery counter stays zero.
func TestFaultsNilStaysClean(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			out, err := w.Run(caf.Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			r := out.Report
			if r.Retransmits != 0 || r.DupsDropped != 0 || r.FaultsInjected != 0 {
				t.Errorf("Faults=nil run reported rtx=%d dup=%d inj=%d, want all 0",
					r.Retransmits, r.DupsDropped, r.FaultsInjected)
			}
		})
	}
}

// TestSameSeedBitIdentical is the determinism regression: the same
// workload under the same seed and fault plan must reproduce the same
// fingerprint (virtual end time, traffic, recovery counters, results)
// and the same Report, run to run.
func TestSameSeedBitIdentical(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cfg := caf.Config{Seed: 7, Fabric: caf.FabricConfig{Faults: Plan(7, 0.2)}}
			a, err := w.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Fingerprint != b.Fingerprint {
				t.Errorf("same seed diverged:\n run1 %s\n run2 %s", a.Fingerprint, b.Fingerprint)
			}
			if !reflect.DeepEqual(a.Report, b.Report) {
				t.Errorf("reports differ:\n run1 %+v\n run2 %+v", a.Report, b.Report)
			}
		})
	}
}

// TestConflictLogDeterministic runs the racy get-update-put RandomAccess
// with conflict detection over a faulty fabric twice: the conflict log —
// order and content — must be identical across runs.
func TestConflictLogDeterministic(t *testing.T) {
	cfg := ra.DefaultConfig(ra.GetUpdatePut)
	cfg.LocalTableBits = 7
	cfg.UpdatesPerImage = 128
	cfg.BunchSize = 16
	run := func() ra.Result {
		res, err := ra.Run(caf.Config{
			Images: 4,
			Seed:   5,
			Races:  true,
			Fabric: caf.FabricConfig{Faults: Plan(5, 0.1)},
		}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Conflicts != b.Conflicts {
		t.Errorf("conflict counts differ: %d vs %d", a.Conflicts, b.Conflicts)
	}
	if !reflect.DeepEqual(a.ConflictLog, b.ConflictLog) {
		t.Errorf("conflict logs differ:\n run1 %v\n run2 %v", a.ConflictLog, b.ConflictLog)
	}
	if a.Time != b.Time {
		t.Errorf("virtual end times differ: %v vs %v", a.Time, b.Time)
	}
}

// Coalescing configurations the chaos rows sweep: MaxMsgs varies the
// batch granularity from eager (2) to wide (32).
var sweepCoalescing = []int{2, 8, 32}

// TestChaosSweepCoalesced composes the two optional fabric layers: every
// workload runs with message coalescing AND a fault plan, over seed ×
// rate × MaxMsgs. The workload Run functions verify ground truth and
// exactly-once handler execution internally, so a batch that was
// dropped, duplicated, or reordered and then mis-replayed shows up as a
// hard failure here.
func TestChaosSweepCoalesced(t *testing.T) {
	var batched, recovered uint64
	for _, w := range Workloads() {
		for _, seed := range sweepSeeds {
			for _, rate := range []float64{0, 0.1} {
				for _, maxMsgs := range sweepCoalescing {
					w, seed, rate, maxMsgs := w, seed, rate, maxMsgs
					t.Run(fmt.Sprintf("%s/seed=%d/rate=%g/max=%d", w.Name, seed, rate, maxMsgs), func(t *testing.T) {
						out, err := w.Run(caf.Config{
							Seed:   seed,
							Fabric: caf.FabricConfig{Faults: Plan(seed, rate), Coalescing: caf.Coalescing{MaxMsgs: maxMsgs}},
						})
						if err != nil {
							t.Fatalf("workload failed under faults+coalescing: %v", err)
						}
						batched += out.Report.MsgsCoalesced
						if rate > 0 {
							recovered += out.Report.Retransmits
						}
					})
				}
			}
		}
	}
	if batched == 0 {
		t.Error("no messages were ever coalesced — the sweep never exercised batching")
	}
	if recovered == 0 {
		t.Error("no retransmits under faults — the sweep never exercised batch recovery")
	}
}

// TestCoalescedSameSeedBitIdentical: determinism holds with both layers
// on — same seed, same fault plan, same coalescing config ⇒ identical
// fingerprint and Report.
func TestCoalescedSameSeedBitIdentical(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cfg := caf.Config{
				Seed:   7,
				Fabric: caf.FabricConfig{Faults: Plan(7, 0.2), Coalescing: caf.Coalescing{MaxMsgs: 8}},
			}
			a, err := w.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Fingerprint != b.Fingerprint {
				t.Errorf("same seed diverged:\n run1 %s\n run2 %s", a.Fingerprint, b.Fingerprint)
			}
			if !reflect.DeepEqual(a.Report, b.Report) {
				t.Errorf("reports differ:\n run1 %+v\n run2 %+v", a.Report, b.Report)
			}
		})
	}
}

// TestCoalescingOffStaysInert pins the zero-value contract from the
// coalescing side: with Config.Fabric.Coalescing zero every coalescing counter
// stays zero, faults or not.
func TestCoalescingOffStaysInert(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, faults := range []*caf.FaultPlan{nil, Plan(3, 0.1)} {
				out, err := w.Run(caf.Config{Seed: 3, Fabric: caf.FabricConfig{Faults: faults}})
				if err != nil {
					t.Fatal(err)
				}
				r := out.Report
				if r.MsgsCoalesced != 0 || r.Flushes != 0 || r.FlushBySize != 0 ||
					r.FlushByTimer != 0 || r.FlushByBarrier != 0 {
					t.Errorf("zero-valued Coalescing reported coal=%d fl=%d (s/t/b %d/%d/%d), want all 0",
						r.MsgsCoalesced, r.Flushes, r.FlushBySize, r.FlushByTimer, r.FlushByBarrier)
				}
			}
		})
	}
}

// TestCrashNeverTerminatesEarly: hard-crashing an image mid-run must
// never let a supervising finish conclude — work on the dead image can
// no longer complete, so the run must end in a detected deadlock, not a
// false success.
func TestCrashNeverTerminatesEarly(t *testing.T) {
	w := finishForest()
	plan := Plan(9, 0.05)
	plan.Crash = map[int]caf.Time{2: 200 * caf.Microsecond}
	out, err := w.Run(caf.Config{Seed: 9, Fabric: caf.FabricConfig{Faults: plan}})
	if err == nil {
		t.Fatalf("run with a crashed image succeeded (fingerprint %s): finish terminated early", out.Fingerprint)
	}
	var dead *sim.DeadlockError
	if !errors.As(err, &dead) {
		t.Fatalf("expected a deadlock from the crashed image, got: %v", err)
	}
}
