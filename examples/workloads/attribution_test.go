package workloads

import (
	"testing"

	caf "caf2go"
	"caf2go/internal/prof"
)

// TestContinuationAttribution pins blocked-time attribution on the
// continuation workloads: every nanosecond a strand spends parked in a
// blocking primitive must be attributed to the async ops whose
// transitions released it. A regression here means some completion path
// stopped routing through opAdvance (so the lifecycle log misses the
// releasing transition) and profiles would grow an Unattributed row.
func TestContinuationAttribution(t *testing.T) {
	runs := []struct {
		name string
		run  func() (*caf.Machine, error)
	}{
		{"stencil", func() (*caf.Machine, error) {
			var m *caf.Machine
			_, err := StencilContinuation(caf.Config{Images: 8, Seed: 7, TraceCapacity: 1 << 15},
				32, 5, CaptureMachine(&m))
			return m, err
		}},
		{"pipeline", func() (*caf.Machine, error) {
			var m *caf.Machine
			_, err := PipelineContinuation(caf.Config{Images: 6, Seed: 5, TraceCapacity: 1 << 15},
				32, CaptureMachine(&m))
			return m, err
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			m, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			p := m.Profile()
			if len(p.Blocks) == 0 {
				t.Fatal("no parked intervals recorded; workload no longer blocks?")
			}
			if ratio := prof.AttributionRatio(p); ratio != 1.0 {
				t.Errorf("attribution ratio = %.3f, want 1.0", ratio)
			}
			for _, row := range prof.Blockers(p, 3) {
				if row.Unattributed != 0 {
					t.Errorf("prim %s: %d ns unattributed (total %d)", row.Prim, row.Unattributed, row.Total)
				}
			}
		})
	}
}

// TestPollSetParkAttribution pins the PollSet.Drain park specifically:
// a strand parked in Drain waiting on a single remote spawn must charge
// the full parked interval to that spawn op, with nothing unattributed.
func TestPollSetParkAttribution(t *testing.T) {
	m := caf.NewMachine(caf.Config{Images: 2, Seed: 3, TraceCapacity: 1 << 14})
	m.Launch(func(img *caf.Image) {
		if img.Rank() != 0 {
			return
		}
		ps := img.NewPollSet()
		op := img.SpawnHandle(1, func(s *caf.Image) {
			s.Compute(50 * caf.Microsecond)
		})
		ps.OnGlobalCompletion(op, func() {})
		ps.Drain() // parks ~50µs until the spawn reaches global completion
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	p := m.Profile()
	var pollset *prof.BlockerRow
	for _, row := range prof.Blockers(p, 5) {
		if row.Prim == "pollset" {
			r := row
			pollset = &r
		}
	}
	if pollset == nil {
		t.Fatal("no pollset park recorded; Drain no longer blocks on the pending spawn?")
	}
	if pollset.Unattributed != 0 {
		t.Errorf("pollset park: %d ns unattributed (total %d)", pollset.Unattributed, pollset.Total)
	}
	if len(pollset.Top) == 0 {
		t.Fatal("pollset park has no releaser ops")
	}
	top := pollset.Top[0]
	if top.Kind != "spawn" {
		t.Errorf("top releaser kind = %q, want spawn", top.Kind)
	}
	if top.Share != pollset.Total {
		t.Errorf("releaser share = %d, want the full parked interval %d", top.Share, pollset.Total)
	}
}
