package caf_test

import (
	"testing"

	caf "caf2go"
	"caf2go/internal/ra"
)

// Every wait re-tests its condition in the events that wake it, so a proc
// is resumed only when what it waits for holds. On these shapes the
// engine's resumes are pinned at the parent's count less the resumes that
// found their condition still false there (96 on the barrier loop, from
// the collective waiter a blocking call leaves on its handle, and 32 on
// ra-gup); the events are the parent's to the event.
func TestProcResumesPinned(t *testing.T) {
	rows := []struct {
		name            string
		events, resumes uint64
		run             func(t *testing.T) *caf.Machine
	}{
		{"barrier-loop-64", 2184, 672 - 96, func(t *testing.T) *caf.Machine {
			m := caf.NewMachine(caf.Config{Images: 64, Seed: 1})
			m.Launch(func(img *caf.Image) {
				for i := 0; i < 4; i++ {
					img.Barrier(nil)
					img.Compute(caf.Microsecond)
				}
			})
			if _, err := m.RunToCompletion(); err != nil {
				t.Fatal(err)
			}
			return m
		}},
		// TestPoolRAGUPBytesPerUpdate's shape.
		{"ra-gup-pin", 237891, 48741 - 32, func(t *testing.T) *caf.Machine {
			cfg := ra.DefaultConfig(ra.GetUpdatePut)
			cfg.LocalTableBits, cfg.UpdatesPerImage, cfg.Workers = 9, 512, 16
			var m *caf.Machine
			if _, err := ra.RunCapture(caf.Config{Images: 32, Seed: 1}, cfg, &m); err != nil {
				t.Fatal(err)
			}
			return m
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			eng := row.run(t).Engine()
			if eng.EventsRun() != row.events || eng.Resumes() != row.resumes {
				t.Errorf("%d events and %d resumes, want %d and %d", eng.EventsRun(), eng.Resumes(), row.events, row.resumes)
			}
		})
	}
}
