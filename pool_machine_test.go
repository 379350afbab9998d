package caf_test

import (
	"runtime"
	"testing"

	caf "caf2go"
	"caf2go/internal/sim"
)

// machineShape is the smallest program that uses every per-image layer:
// one Finish around one Spawn to the right neighbour, so each image has
// its main proc and coroutine, a finish state, one detection round of
// the allreduce, a spawn, its message and the shipped function's proc.
func machineShape(img *caf.Image) {
	img.Finish(img.World(), func() {
		img.Spawn((img.Rank()+1)%img.NumImages(), func(*caf.Image) {})
	})
}

// machineCost builds and runs machineShape's machine on images images
// and returns what it allocated per image and the events it ran.
func machineCost(tb testing.TB, images int) (objects, bytes float64, events uint64) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := caf.Run(caf.Config{Images: images, Seed: 1}, machineShape)
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(images),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(images),
		rep.EventsRun
}

// What a machine costs per image, construction included, at 4 096 images
// (ROADMAP item 13): one handler table per machine, per-image state in
// slabs or made on first use, and a collective round on recycled records
// leave the coroutine of the image's main (about half of the objects),
// the finish state, the round's instance and the spawn's records. Pinned
// at what the run allocates plus 5 %; it was 73.9 objects and 5 815 B
// before the machine-wide handler table.
func TestPoolMachineObjectsPerImage(t *testing.T) {
	if sim.GoRace || sim.QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
	const images = 4096
	machineCost(t, images) // warm-up
	objects, bytes, _ := machineCost(t, images)
	t.Logf("%.1f objects, %.0f B per image", objects, bytes)
	if limit := 27.5 * 1.05; objects > limit {
		t.Errorf("%.1f objects per image, want ≤ %.1f", objects, limit)
	}
	if limit := 2835.0 * 1.05; bytes > limit {
		t.Errorf("%.0f B per image, want ≤ %.0f", bytes, limit)
	}
}
