package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"caf2go/internal/sim"

	caf "caf2go"
)

// crashRates are the message-fault rates the crash sweep composes with
// the image crash: clean network, light loss, aggressive loss.
var crashRates = []float64{0, 0.05, 0.2}

// detectorOn is the sweep's failure-detector configuration. The 2µs
// heartbeat makes a 10µs crash declared by ~16µs — inside even the
// shortest workload's fault-free makespan (~27µs), so every row
// exercises survivors blocked mid-run, not a post-completion no-op.
func detectorOn() caf.FailureDetectorConfig {
	return caf.FailureDetectorConfig{Enabled: true, Heartbeat: 2 * caf.Microsecond}
}

// crashPlan is Plan(seed, rate) plus a hard crash of rank 2 at 10µs.
// Every sweep workload has ≥ 4 images, so rank 2 is always a member.
func crashPlan(seed int64, rate float64) *caf.FaultPlan {
	plan := Plan(seed, rate)
	plan.Crash = map[int]caf.Time{2: 10 * caf.Microsecond}
	return plan
}

// TestCrashWithDetectorSurfacesFailure is the resilience acceptance
// sweep: with the failure detector enabled, every workload × seed ×
// rate row that loses an image mid-run must terminate — no deadlock,
// no hang — and surface a typed *caf.ImageFailedError naming the dead
// rank. This is the detector-ON counterpart of
// TestCrashNeverTerminatesEarly, which pins the legacy detector-OFF
// deadlock for the same scenario.
func TestCrashWithDetectorSurfacesFailure(t *testing.T) {
	for _, w := range Workloads() {
		for _, seed := range sweepSeeds {
			for _, rate := range crashRates {
				w, seed, rate := w, seed, rate
				t.Run(fmt.Sprintf("%s/seed=%d/rate=%g", w.Name, seed, rate), func(t *testing.T) {
					out, err := w.Run(caf.Config{
						Seed:            seed,
						Fabric:          caf.FabricConfig{Faults: crashPlan(seed, rate)},
						FailureDetector: detectorOn(),
					})
					if err == nil {
						t.Fatalf("crashed image went unnoticed (fingerprint %s)", out.Fingerprint)
					}
					var dead *sim.DeadlockError
					if errors.As(err, &dead) {
						t.Fatalf("detector-on crash still deadlocked: %v", err)
					}
					var ferr *caf.ImageFailedError
					if !errors.As(err, &ferr) {
						t.Fatalf("expected an ImageFailedError, got %T: %v", err, err)
					}
					if ferr.Rank != 2 {
						t.Errorf("error blames rank %d, crashed rank 2: %v", ferr.Rank, ferr)
					}
				})
			}
		}
	}
}

// TestCrashWithDetectorDeterministic: resilience keeps replay —
// same seed, same plan, same detector config ⇒ the same failure
// (identical error text, including declaration time and lost-activity
// count) on every run.
func TestCrashWithDetectorDeterministic(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cfg := caf.Config{
				Seed:            7,
				Fabric:          caf.FabricConfig{Faults: crashPlan(7, 0.05)},
				FailureDetector: detectorOn(),
			}
			_, err1 := w.Run(cfg)
			_, err2 := w.Run(cfg)
			if err1 == nil || err2 == nil {
				t.Fatalf("crash runs succeeded: %v / %v", err1, err2)
			}
			if err1.Error() != err2.Error() {
				t.Errorf("same seed diverged:\n run1 %v\n run2 %v", err1, err2)
			}
		})
	}
}

// TestDetectorOnNoCrashBitIdentical pins the perturbation-free
// contract from the other side: an enabled detector with no crash in
// the plan schedules no events and must reproduce the detector-off
// fingerprint and Report bit for bit.
func TestDetectorOnNoCrashBitIdentical(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			off, err := w.Run(caf.Config{Seed: 7, Fabric: caf.FabricConfig{Faults: Plan(7, 0.2)}})
			if err != nil {
				t.Fatal(err)
			}
			on, err := w.Run(caf.Config{Seed: 7, Fabric: caf.FabricConfig{Faults: Plan(7, 0.2)}, FailureDetector: detectorOn()})
			if err != nil {
				t.Fatal(err)
			}
			if off.Fingerprint != on.Fingerprint {
				t.Errorf("enabling the idle detector changed the run:\n off %s\n on  %s",
					off.Fingerprint, on.Fingerprint)
			}
			if !reflect.DeepEqual(off.Report, on.Report) {
				t.Errorf("reports differ:\n off %+v\n on  %+v", off.Report, on.Report)
			}
		})
	}
}

// noop is a shipped function that does nothing.
type noop struct{}

func (noop) Ship(*caf.Image) {}

// TestCrashMachineReport drives a machine directly through a crash and
// checks the whole error-reporting surface: per-image errors, the dead
// set, and the Report's failure counters.
func TestCrashMachineReport(t *testing.T) {
	const n = 4
	m := caf.NewMachine(caf.Config{
		Images:          n,
		Seed:            11,
		Fabric:          caf.FabricConfig{Faults: crashPlan(11, 0)},
		FailureDetector: detectorOn(),
	})
	m.Launch(func(img *caf.Image) {
		for r := 0; r < 40; r++ {
			img.Finish(nil, func() {
				img.SpawnRecord((img.Rank()+1)%n, noop{})
			})
		}
	})
	rep, err := m.RunToCompletion()
	if err == nil {
		t.Fatal("crash run reported success")
	}
	var ferr *caf.ImageFailedError
	if !errors.As(err, &ferr) {
		t.Fatalf("expected ImageFailedError, got %T: %v", err, err)
	}
	if got := m.DeadImages(); len(got) != 1 || got[0] != 2 {
		t.Errorf("DeadImages() = %v, want [2]", got)
	}
	if rep.ImagesFailed != 1 {
		t.Errorf("Report.ImagesFailed = %d, want 1", rep.ImagesFailed)
	}
	if rep.OpsAbortedByFailure < int64(n) {
		t.Errorf("Report.OpsAbortedByFailure = %d, want ≥ %d (every image's main unwinds)",
			rep.OpsAbortedByFailure, n)
	}
	errs := m.ImageErrors()
	if len(errs) != n {
		t.Fatalf("ImageErrors() has %d entries, want %d", len(errs), n)
	}
	for rank, e := range errs {
		if e == nil {
			t.Errorf("image %d recorded no error; every image was inside a world finish", rank)
			continue
		}
		if e.Rank != 2 {
			t.Errorf("image %d blames rank %d, want 2: %v", rank, e.Rank, e)
		}
	}
}
