package caf

import (
	"testing"
	"unsafe"
)

// eventShape runs a two-image machine on which image 0 hands body its
// Image, the event it hosts (own), image 1's event (far) and a one-word
// coarray. Image 1 waits until image 0 notifies its second event at the
// end.
func eventShape(t testing.TB, body func(img *Image, own, far *Event, ca *Coarray[int64])) {
	var evs [2][2]*Event
	_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
		me := img.Rank()
		ca := NewCoarray[int64](img, nil, 1)
		evs[me] = [2]*Event{img.NewEvent(), img.NewEvent()}
		img.Barrier(nil)
		if me == 1 {
			img.EventWait(evs[1][1])
			return
		}
		body(img, evs[0][0], evs[1][0], ca)
		img.EventNotify(evs[1][1])
	})
	if err != nil {
		t.Fatal(err)
	}
}

// eventCalls are the event paths the pins price, each a call that
// completes what it starts: a notify is a record holding its Op, its
// wire payload and its release wait, and a copy gated on an event waits
// there as itself, so a predicated copy allocates the notify that posts
// its event, its own record and its data snapshot, and nothing on its
// way through the event's owner.
var eventCalls = []struct {
	name string
	want float64
	call func(img *Image, own, far *Event, ca *Coarray[int64], src []int64)
}{
	{"EventNotify+EventWait/local", 1, func(img *Image, own, _ *Event, _ *Coarray[int64], _ []int64) {
		img.EventNotify(own)
		img.EventWait(own)
	}},
	{"EventNotify/remote", 1, func(img *Image, _, far *Event, _ *Coarray[int64], _ []int64) {
		img.EventNotify(far)
		img.Compute(Microsecond)
	}},
	{"CopyAsync+Cofence/put", 2, func(img *Image, _, _ *Event, ca *Coarray[int64], src []int64) {
		CopyAsync(img, ca.Sec(1, 0, 1), Local(src))
		img.Cofence(AllowNone, AllowNone)
	}},
	{"CopyAsync+Pred+Cofence/local", 3, func(img *Image, own, _ *Event, ca *Coarray[int64], src []int64) {
		img.EventNotify(own)
		CopyAsync(img, ca.Sec(1, 0, 1), Local(src), Pred(own))
		img.Cofence(AllowNone, AllowNone)
	}},
	{"CopyAsync+Pred+Cofence/remote", 3, func(img *Image, _, far *Event, ca *Coarray[int64], src []int64) {
		img.EventNotify(far)
		CopyAsync(img, ca.Sec(1, 0, 1), Local(src), Pred(far))
		img.Cofence(AllowNone, AllowNone)
	}},
}

// What an event path allocates per call, on two images, untraced and
// warm.
func TestPoolEventAllocs(t *testing.T) {
	skipUnlessPinned(t)
	for _, row := range eventCalls {
		t.Run(row.name, func(t *testing.T) {
			var allocs float64
			eventShape(t, func(img *Image, own, far *Event, ca *Coarray[int64]) {
				src := make([]int64, 1)
				allocs = testing.AllocsPerRun(100, func() { row.call(img, own, far, ca, src) })
			})
			t.Logf("%v allocations per %s", allocs, row.name)
			if allocs > row.want {
				t.Errorf("allocations per %s = %v, want ≤ %v", row.name, allocs, row.want)
			}
		})
	}
}

// A notify's record — its Op, its wire payload and its release wait — is
// no larger than the Op and the closure over it that it replaced.
func TestPoolNotifyOpFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(notifyOp{}); got > 128 {
		t.Errorf("sizeof(notifyOp) = %d, want ≤ 128", got)
	}
}

// BenchmarkEventNotify prices each event path of TestPoolEventAllocs and
// prints its allocs/op.
func BenchmarkEventNotify(b *testing.B) {
	for _, row := range eventCalls {
		b.Run(row.name, func(b *testing.B) {
			eventShape(b, func(img *Image, own, far *Event, ca *Coarray[int64]) {
				src := make([]int64, 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					row.call(img, own, far, ca, src)
				}
				b.StopTimer()
			})
		})
	}
}
