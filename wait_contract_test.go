package caf_test

import (
	"fmt"
	"testing"

	caf "caf2go"
)

// waitRow is a program whose blocking waits the wait contract pins. want
// is the record of a run without a crash and of one in which rank 1 loses
// its NIC at crash and is declared dead at the next 1µs beat plus the
// 2µs lease.
type waitRow struct {
	name   string
	images int
	crash  caf.Time
	want   [2]waitRecord
	main   func(img *caf.Image)
}

// waitRecord is the comparable part of a run of one row: the events it
// ran, the times a proc's stack was switched to, the blocking primitives
// a declared death aborted, and each image's exit time and error, in rank
// order.
type waitRecord struct {
	EventsRun uint64
	Resumes   uint64
	Aborted   int64
	Exits     string
	Errs      string
}

var waitRows = []waitRow{
	// Rank 0 waits three times on its event, which functions it ships
	// to the other ranks notify: early on ranks 2 and 3, late on rank 1,
	// past its crash.
	{"event-wait", 4, 5 * caf.Microsecond, [2]waitRecord{{34, 16, 0, "[[13.648us] [20.000us] [20.000us] [20.000us]]", ""}, {36, 15, 1, "[[7.000us] [20.000us] [20.000us] [20.000us]]", "1@7000:event wait/0 - - -"}}, func(img *caf.Image) {
		if img.Rank() != 0 {
			img.Compute(20 * caf.Microsecond)
			return
		}
		ev := img.NewEvent()
		for r, us := range []caf.Time{1: 10, 2: 3, 3: 4} {
			if us > 0 {
				img.Spawn(r, func(x *caf.Image) {
					x.Compute(us * caf.Microsecond)
					x.EventNotify(ev)
				})
			}
		}
		for i := 0; i < 3; i++ {
			img.EventWait(ev)
		}
	}},
	// Rank 0 drains a poll set over one spawn on each other rank; the
	// one on rank 1 runs past its crash.
	{"pollset-wait", 4, 5 * caf.Microsecond, [2]waitRecord{{25, 16, 0, "[[11.832us] [20.000us] [20.000us] [20.000us]]", ""}, {29, 16, 1, "[[7.000us] [20.000us] [20.000us] [20.000us]]", "1@7000:pollset wait/0 - - -"}}, func(img *caf.Image) {
		if img.Rank() != 0 {
			img.Compute(20 * caf.Microsecond)
			return
		}
		ps := img.NewPollSet()
		for r, us := range []caf.Time{1: 10, 2: 2, 3: 3} {
			if us > 0 {
				ps.OnGlobalCompletion(img.SpawnHandle(r, func(x *caf.Image) { x.Compute(us * caf.Microsecond) }), func() {})
			}
		}
		ps.Drain()
	}},
	// Ranks 0, 2 and 3 take turns on a lock hosted on rank 1.
	{"lock-rpc", 4, 5 * caf.Microsecond, [2]waitRecord{{71, 17, 0, "[[18.496us] [20.000us] [23.120us] [27.744us]]", ""}, {31, 10, 3, "[[7.000us] [20.000us] [7.000us] [7.000us]]", "1@7000:rpc/0 - 1@7000:rpc/0 1@7000:rpc/0"}}, func(img *caf.Image) {
		if img.Rank() == 1 {
			img.Compute(20 * caf.Microsecond)
			return
		}
		for i := 0; i < 2; i++ {
			img.Lock(1, 0)
			img.Compute(caf.Microsecond)
			img.Unlock(1, 0)
		}
	}},
	// Three barriers, then an allreduce; rank 1 is late to the first.
	{"collective", 4, 5 * caf.Microsecond, [2]waitRecord{{114, 36, 0, "[[38.488us] [40.312us] [40.336us] [42.160us]]", ""}, {19, 10, 4, "[[7.000us] [10.000us] [7.000us] [10.000us]]", "1@7000:collective/0 1@7000:collective/0 1@7000:collective/0 1@7000:collective/0"}}, func(img *caf.Image) {
		img.Compute(caf.Time(1+9*(img.Rank()%2)) * caf.Microsecond)
		for i := 0; i < 3; i++ {
			img.Barrier(nil)
			img.Compute(caf.Microsecond)
		}
		img.Allreduce(nil, caf.Sum, []int64{int64(img.Rank())})
	}},
	// Rank 0 fences a get from rank 2 and then one from rank 1, issued
	// at 14µs, just before rank 1 dies: its data never comes back.
	{"cofence", 4, 15 * caf.Microsecond, [2]waitRecord{{45, 14, 0, "[[17.680us] [25.448us] [25.464us] [27.280us]]", ""}, {50, 14, 1, "[[17.000us] [25.448us] [25.464us] [27.280us]]", "1@17000:cofence/0 - - -"}}, cofenceWaitMain},
}

// Rank 0 fences a get from rank 2 and then one from rank 1, issued at
// 14µs, just before rank 1 dies: its data never comes back.
func cofenceWaitMain(img *caf.Image) {
	ca := caf.NewCoarray[int64](img, nil, 4)
	if img.Rank() != 0 {
		img.Compute(20 * caf.Microsecond)
		return
	}
	buf := make([]int64, 4)
	caf.CopyAsync(img, caf.Local(buf), ca.Sec(2, 0, 4))
	img.Cofence(caf.AllowNone, caf.AllowNone)
	img.Compute(14*caf.Microsecond - img.Now())
	caf.CopyAsync(img, caf.Local(buf), ca.Sec(1, 0, 4))
	img.Cofence(caf.AllowNone, caf.AllowNone)
}

// The rows again on lattice points the rows above leave out, each with
// what it sets in the Config. Recorded on the code whose fences start
// their deferred initiations before they flush the coalescing buffers.
var waitLatticeRows = []struct {
	row waitRow
	cfg func(*caf.Config)
}{
	{waitRow{"cofence/relaxed-coalesced", 4, 15 * caf.Microsecond, [2]waitRecord{{49, 14, 0, "[[27.296us] [25.448us] [25.464us] [27.280us]]", ""}, {48, 12, 1, "[[17.000us] [25.448us] [25.464us] [27.280us]]", "1@17000:cofence/0 - - -"}}, cofenceWaitMain}, func(c *caf.Config) {
		c.Relaxed, c.MaxDelayed = true, 8
		c.Fabric.Coalescing = caf.Coalescing{MaxMsgs: 4}
	}},
}

// The wait contract: each blocking primitive, with and without a death
// declared while images wait in it, runs the events, aborts the waits and
// lets each image leave at the time and with the error recorded on the
// loops that re-tested each wait condition on the waiting proc. Every
// wait condition ORs a declared death into what it waits for, so the
// declaration's one wake-up of every parked proc resumes each of them
// exactly once: the resumes pin that.
func TestWaitContractReports(t *testing.T) {
	for _, row := range waitRows {
		runWaitRow(t, row, nil)
	}
	for _, l := range waitLatticeRows {
		runWaitRow(t, l.row, l.cfg)
	}
}

// runWaitRow runs row without and with the crash, on the Config set
// sets (nil for none).
func runWaitRow(t *testing.T, row waitRow, set func(*caf.Config)) {
	for v, crash := range []bool{false, true} {
		t.Run(fmt.Sprintf("%s/crash=%v", row.name, crash), func(t *testing.T) {
			cfg := caf.Config{Images: row.images, Seed: 1}
			if set != nil {
				set(&cfg)
			}
			if crash {
				cfg = withCrash(cfg, map[int]caf.Time{1: row.crash})
			}
			m, rep, seen, errs := runRecorded(t, cfg, row.main, nil)
			got := waitRecord{rep.EventsRun, m.Engine().Resumes(), rep.OpsAbortedByFailure, fmt.Sprint(seen), errs}
			if got != row.want[v] {
				t.Errorf("got %#v, want %#v", got, row.want[v])
			}
		})
	}
}
