package caf

import (
	"runtime"
	"testing"
)

// faultPlanLoop runs iters warm iterations of a one-element GetInto, a
// Put and an Inline spawn from image 0 to image 1, on a 4-image machine
// whose fault plan injects nothing but switches the fabric onto its
// reliability protocol, and returns the objects and bytes one iteration
// allocates.
func faultPlanLoop(t *testing.T, iters int) (objects, bytes float64) {
	_, err := Run(Config{Images: 4, Seed: 1, Fabric: FabricConfig{Faults: &FaultPlan{Seed: 1}}}, func(img *Image) {
		ca := NewCoarray[uint64](img, nil, 512)
		if img.Rank() != 0 {
			return
		}
		var x [1]uint64
		loop := func(n int) {
			for i := 0; i < n; i++ {
				sec := ca.Sec(1, i%512, i%512+1)
				GetInto(img, x[:], sec)
				Put(img, sec, []uint64{x[0] + 1})
				img.Spawn(1, func(*Image) {}, Inline(0))
			}
		}
		loop(64) // warm-up: fills the pools
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		loop(iters)
		runtime.ReadMemStats(&after)
		objects = float64(after.Mallocs-before.Mallocs) / float64(iters)
		bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(iters)
	})
	if err != nil {
		t.Fatal(err)
	}
	return objects, bytes
}

// Under a fault plan a GetInto, a Put and a spawn recycle their records
// as they do without one: what an iteration allocates is the reliability
// protocol's own per-message state (its txState, timer and closures).
// Pinned at the measurement plus 5 % (31.28 objects and 2 549 B while the
// requests, the outMsgs and the spawn record were left to the GC under a
// fault plan).
func TestPoolGetIntoPutSpawnFaultPlanAllocs(t *testing.T) {
	skipUnlessPinned(t)
	objects, bytes := faultPlanLoop(t, 2000)
	t.Logf("%.2f objects, %.0f B per GetInto + Put + Spawn under a fault plan", objects, bytes)
	if limit := 30.00 * 1.05; objects > limit {
		t.Errorf("%.2f objects per iteration, want ≤ %.2f", objects, limit)
	}
	if limit := 1280 * 1.05; bytes > limit {
		t.Errorf("%.0f B per iteration, want ≤ %.0f", bytes, limit)
	}
}
