package caf_test

import (
	"runtime"
	"testing"

	caf "caf2go"
	"caf2go/internal/ra"
	"caf2go/internal/sim"
)

// RandomAccess by function shipping in the benchmark's shape, scaled to
// 32 images: 256 updates per image in one bunch behind 64 credits, so
// every update is a live spawn at once and most of them wait for a
// credit. Objects and bytes per update, setup included, are pinned at
// what the run allocates with the message's transit state in the message,
// a spawn in 128 bytes and a message in 176, one handler table per
// machine, recycled collective rounds, a burst's records carved from
// slabs, a spawn's record recycled and the updates shipped as records
// from one slice, plus 5 % (3.41 objects and 552 B before the handler
// table moved to the machine, 469 B with a message in 224, 3.14 objects
// and 424 B with every record of a burst made on its own, 2.24 objects
// while every spawn kept its own record, 1.26 and 418 B while every
// update was a closure). The bytes stay near the owned records' figure:
// in this shape most spawns carve their record, the slabs and the list's
// pages cost about 6 B per update more than owned records did, and the
// one bunch makes the slice of records 24 B per update.
func TestPoolRAFSAllocsPerUpdate(t *testing.T) {
	if sim.GoRace || sim.QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
	const images, perImage = 32, 256
	cfg := ra.DefaultConfig(ra.FunctionShipping)
	cfg.LocalTableBits, cfg.UpdatesPerImage, cfg.BunchSize = 8, perImage, perImage
	run := func() {
		res, err := ra.Run(caf.Config{Images: images, Seed: 1}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("%d table entries differ", res.Errors)
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
	if limit := 0.26 * 1.05; objects > limit {
		t.Errorf("%.3f objects per update, want ≤ %.3f", objects, limit)
	}
	if limit := 411.0 * 1.05; bytes > limit {
		t.Errorf("%.1f B per update, want ≤ %.1f", bytes, limit)
	}
}
