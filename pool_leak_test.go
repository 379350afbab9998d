package caf_test

import (
	"runtime"
	"testing"

	caf "caf2go"
)

// keptInlineHeap runs n inline shipped functions from image 0 to image 1
// and returns the live heap after a collection, read by the last image's
// main after the last of them and before the run ends. The functions go
// in finish rounds of 64, all of a round holding their records at once
// (the service time outlasts the round's deliveries), so that what the
// free lists keep, their peak, does not grow with n. Every other function
// leaves a CopyAsync from a local buffer unfenced, which keeps its record,
// and holds ballast bytes through its closure; the others leave nothing,
// and their records go back to the machine's list.
func keptInlineHeap(t *testing.T, n, ballast int) uint64 {
	t.Helper()
	const burst = 64
	var live uint64
	_, err := caf.Run(caf.Config{Images: 2, Seed: 1}, func(img *caf.Image) {
		ca := caf.NewCoarray[int](img, nil, burst)
		for round := 0; round < n/burst; round++ {
			img.Finish(img.World(), func() {
				for i := 0; i < burst && img.Rank() == 0; i++ {
					if i%2 == 0 {
						img.Spawn(1, func(*caf.Image) {}, caf.Inline(caf.Millisecond))
						continue
					}
					buf := make([]byte, ballast)
					img.Spawn(1, func(r *caf.Image) {
						caf.CopyAsync(r, ca.Sec(0, i, i+1), caf.Local([]int{len(buf)}))
					}, caf.Inline(caf.Millisecond))
				}
			})
		}
		img.Barrier(img.World())
		if img.Rank() == img.NumImages()-1 {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			live = ms.HeapAlloc
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return live
}

// A record an inline function keeps (an operation it left unfenced points
// into it) is made with new, not carved from a slab of the machine's free
// list: a slab lives as long as any record of it is on the list, and
// would keep every kept record beside it, and what that points to, until
// the machine is dropped. So four times the functions, the kept half of
// them each holding 4 KiB, leave the live heap where a quarter of them
// holding nothing left it.
func TestPoolKeptInlineRecordsAreNotPinned(t *testing.T) {
	const n = 4096
	keptInlineHeap(t, n, 0) // warm-up
	small, large := keptInlineHeap(t, n, 0), keptInlineHeap(t, 4*n, 4096)
	t.Logf("live heap %d B after %d functions, %d B after %d with ballast", small, n, large, 4*n)
	if float64(large) > 1.1*float64(small) {
		t.Errorf("live heap grew from %d to %d B: records their owner kept stay pinned", small, large)
	}
}
