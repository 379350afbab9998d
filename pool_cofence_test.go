package caf

import (
	"fmt"
	"testing"

	"caf2go/internal/sim"
)

// cofenceOpShape runs a two-image machine on which image 0 keeps
// constrained copies pending on its tracker and hands body its Image,
// warm: a round of fences over such copies has fired first, so the
// tracker's list of continuation fences has grown. pend issues a fresh
// set of copies; a full Cofence clears them and fires their fences.
func cofenceOpShape(t testing.TB, constrained int, body func(img *Image, pend func())) {
	_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
		ca := NewCoarray[int64](img, nil, 1)
		if img.Rank() != 0 {
			return
		}
		src := make([]int64, 1)
		pend := func() {
			for i := 0; i < constrained; i++ {
				CopyAsync(img, ca.Sec(1, 0, 1), Local(src))
			}
		}
		pend()
		for i := 0; i < 256; i++ {
			img.CofenceOp(AllowNone)
		}
		img.Cofence(AllowNone, AllowNone)
		pend()
		body(img, pend)
		img.Cofence(AllowNone, AllowNone)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A continuation fence is one record, its Op and its count, which the
// tracker holds until the last constrained operation completes: one
// object however many operations it waits on.
func TestPoolCofenceOpAllocs(t *testing.T) {
	skipUnlessPinned(t)
	for _, constrained := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("constrained=%d", constrained), func(t *testing.T) {
			var allocs float64
			cofenceOpShape(t, constrained, func(img *Image, _ func()) {
				allocs = testing.AllocsPerRun(100, func() { img.CofenceOp(AllowNone) })
			})
			t.Logf("%v allocations per CofenceOp over %d constrained operations", allocs, constrained)
			if allocs > 1 {
				t.Errorf("allocations per CofenceOp over %d constrained operations = %v, want ≤ 1", constrained, allocs)
			}
		})
	}
}

// BenchmarkCofenceOp prices one continuation fence over 0, 1 and 4
// pending constrained copies, and prints its allocs/op. Every 256 fences
// a full Cofence, off the clock, completes the copies and fires them.
func BenchmarkCofenceOp(b *testing.B) {
	for _, constrained := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("constrained=%d", constrained), func(b *testing.B) {
			cofenceOpShape(b, constrained, func(img *Image, pend func()) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%256 == 255 {
						b.StopTimer()
						img.Cofence(AllowNone, AllowNone)
						pend()
						b.StartTimer()
					}
					img.CofenceOp(AllowNone)
				}
				b.StopTimer()
			})
		})
	}
}

// An inline function that leaves a continuation fence pending keeps its
// record, whose tracker holds the fence: the fence fires once, when the
// copy it waits on completes after the function has returned. With every
// released record quarantined, a record given back too early would have
// lost the fence with its zeroed tracker.
func TestQuarantineInlineCofenceOpKeepsItsRecord(t *testing.T) {
	prev := sim.QuarantinePools
	sim.QuarantinePools = true
	defer func() { sim.QuarantinePools = prev }()
	var pendingAtExit, fired int
	var firedAt, returnedAt Time
	_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
		ca := NewCoarray[int64](img, nil, 1)
		img.Finish(nil, func() {
			if img.Rank() == 0 {
				img.Spawn(1, func(r *Image) {
					CopyAsync(r, ca.Sec(0, 0, 1), Local([]int64{5}))
					r.CofenceOp(AllowNone).OnGlobalCompletion(func() { fired++; firedAt = r.Now() })
					pendingAtExit, returnedAt = r.PendingImplicitOps(), r.Now()
				}, Inline(0))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if pendingAtExit != 1 || fired != 1 || firedAt <= returnedAt {
		t.Errorf("%d operations pending at function exit, fence fired %d times at %v (function returned at %v); want 1, once, later",
			pendingAtExit, fired, firedAt, returnedAt)
	}
}
