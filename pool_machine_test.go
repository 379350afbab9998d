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
// and returns what it allocated per image, the goroutine stack in use per
// image once the last image's main has left its finish, and the events
// it ran.
func machineCost(tb testing.TB, images int) (objects, bytes, stack float64, events uint64) {
	tb.Helper()
	// Not a local of an image's main: a MemStats (≈ 5 kB) in its frame
	// would be the deepest thing on every main's stack.
	var before, mid, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := caf.Run(caf.Config{Images: images, Seed: 1}, func(img *caf.Image) {
		machineShape(img)
		if img.Rank() == images-1 {
			runtime.ReadMemStats(&mid)
		}
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(images),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(images),
		float64(mid.StackInuse) / float64(images),
		rep.EventsRun
}

// What a machine costs per image, construction included, at 4 096 images
// (ROADMAP item 13): one handler table per machine, per-image state in
// slabs or made on first use, and a collective round on recycled records
// leave the coroutine of the image's main (about half of the objects),
// the finish state, the round's instance and the spawn's records. Pinned
// at what the run allocates plus 5 %; it was 73.9 objects and 5 815 B
// before the machine-wide handler table, 27.5 objects and 2 835 B before
// the free lists carved their records from slabs, 24.2 objects while
// the finish round's reduced vector and completion time were copied out
// to the heap (the bytes stayed: the state grew by theirs), and 21.2
// objects while the main's proc and the shipped function's were objects
// of their own rather than fields of their records.
func TestPoolMachineObjectsPerImage(t *testing.T) {
	if sim.GoRace || sim.QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
	const images = 4096
	machineCost(t, images) // warm-up
	objects, bytes, _, _ := machineCost(t, images)
	t.Logf("%.1f objects, %.0f B per image", objects, bytes)
	if limit := 19.2 * 1.05; objects > limit {
		t.Errorf("%.1f objects per image, want ≤ %.1f", objects, limit)
	}
	if limit := 2705.0 * 1.05; bytes > limit {
		t.Errorf("%.0f B per image, want ≤ %.0f", bytes, limit)
	}
}

// An image's main runs its finish round's allreduce send on its own
// coroutine stack, which starts at 4 kB and doubles when a call chain
// outgrows it. Today the chain fits: a 4 kB stack per image, which at
// 32 768 images is 128 MiB of stack not allocated and then freed. A
// record cleared through a literal in a helper that inlines into every
// blocking collective was enough to double it (ROADMAP item 16).
func TestPoolMachineStackPerImage(t *testing.T) {
	if sim.GoRace {
		t.Skip("the race detector's instrumentation deepens every frame")
	}
	_, _, perImage, _ := machineCost(t, 8192)
	t.Logf("%.0f B of stack per image", perImage)
	if perImage > 5000 {
		t.Errorf("%.0f B of stack per image, want about 4 kB: an image main's stack doubled", perImage)
	}
}
