package caf_test

import (
	"runtime"
	"testing"

	caf "caf2go"
	"caf2go/internal/ra"
	"caf2go/internal/sim"
)

// RandomAccess by blocking Get/Put in the benchmark's shape, scaled to 32
// images: 16 updater procs per image, 512 updates per image. Objects and
// bytes per update, setup included, are pinned at what the run allocates
// with each GetInto's and Put's request record recycled on its coarray, a
// short Put's values carried in its record, a short read served into its
// record and copied into the worker's own buffer, and the records of a
// burst carved from slabs, plus 5 % (2.88 objects and 111 B before the
// put's values moved into the record, 1.83 objects and 96.4 B before the
// slabs, 1.60 objects and 92.7 B while every read was a fresh slice).
func TestPoolRAGUPBytesPerUpdate(t *testing.T) {
	if sim.GoRace || sim.QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
	const images, perImage = 32, 512
	cfg := ra.DefaultConfig(ra.GetUpdatePut)
	cfg.LocalTableBits, cfg.UpdatesPerImage, cfg.Workers = 9, perImage, 16
	run := func() {
		if _, err := ra.Run(caf.Config{Images: images, Seed: 1}, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	const updates = images * perImage
	objects := float64(after.Mallocs-before.Mallocs) / updates
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / updates
	t.Logf("%.3f objects, %.1f B per update", objects, bytes)
	if limit := 0.603 * 1.05; objects > limit {
		t.Errorf("%.3f objects per update, want ≤ %.3f", objects, limit)
	}
	if limit := 85.3 * 1.05; bytes > limit {
		t.Errorf("%.1f B per update, want ≤ %.1f", bytes, limit)
	}
}
