package caf_test

import (
	"fmt"
	"testing"

	caf "caf2go"
)

// cofenceContract mixes everything a cofence tracks on one program:
// spawns (whose local data completes at registration), puts (reads of
// local data), gets (writes of it), a fence at every Allow level, and
// continuations that spawn from engine context while the main is parked
// in a cofence: one fires while a get still holds the fence, one just
// before the get's local data releases it. fences sums, over every
// fence, when it returned and what was still pending after it, weighted
// by the fence's place in the program.
func cofenceContract(fences *uint64) func(img *caf.Image) {
	return func(img *caf.Image) {
		k := uint64(0)
		fence := func(down, up caf.Allow) {
			img.Cofence(down, up)
			k++
			*fences += k * (uint64(img.Now()) + 1_000_000*uint64(img.PendingImplicitOps()))
		}
		const big = 4096
		n := img.NumImages()
		right := (img.Rank() + 1) % n
		ca := caf.NewCoarray[int64](img, nil, big)
		src := make([]int64, 8)
		dst := make([]int64, big)
		body := func(t *caf.Image) { t.Compute(200) }
		// An inline function spawns from its own tracker.
		relay := func(t *caf.Image) { t.Spawn((t.Rank()+1)%n, body) }
		for i, a := range []caf.Allow{caf.AllowNone, caf.AllowRead, caf.AllowWrite, caf.AllowAny} {
			img.Finish(nil, func() {
				img.Spawn(right, body)
				caf.CopyAsync(img, ca.Sec(right, 0, 8), caf.Local(src))
				caf.CopyAsync(img, caf.Local(dst[:8]), ca.Sec(right, 8, 16))
				img.Spawn(right, body, caf.WithBytes(8192))
				img.Spawn(right, relay, caf.Inline(50))
				fence(a, a)
				src[0] = int64(i)
				img.Spawn(right, body, caf.WithPayload(make([]byte, 64)))
				fence(a, caf.AllowNone)
			})
		}
		img.Finish(nil, func() {
			s := img.SpawnHandle(right, body)
			s.OnLocalCompletion(func() { img.Spawn(right, body) })
			g := caf.CopyAsync(img, caf.Local(dst), ca.Sec(right, 0, big))
			g.OnLocalData(func() { img.Spawn(right, relay, caf.Inline(10)) })
			fence(caf.AllowNone, caf.AllowNone)
			img.Spawn(right, body)
			fence(caf.AllowRead, caf.AllowRead)
		})
	}
}

// contractReport is the comparable part of a Report.
type contractReport struct {
	VirtualTime                caf.Time
	Msgs, Bytes                uint64
	SpawnsSent, SpawnsExecuted int64
	Copies                     int64
	FinishBlocks               int
	ReduceRounds               int64
	EventsRun                  uint64
	Fences                     uint64
}

// The cofence contract on one program, eager and relaxed at two buffer
// sizes, pinned to the reports of the code that stored a cofence record
// for every spawn: a spawn's registration, complete at birth, starts the
// same sends at the same points and wakes the same fences. The coalesced
// rows are recorded on the code whose fences start their deferred
// initiations before they flush the coalescing buffers.
func TestCofenceContractReports(t *testing.T) {
	for _, tc := range []struct {
		name       string
		relaxed    bool
		maxDelayed int
		coalesced  bool
		want       contractReport
	}{
		{"eager", false, 0, false, contractReport{172772, 222, 270656, 100, 100, 36, 20, 40, 967, 184721224}},
		{"relaxed-1", true, 1, false, contractReport{175966, 222, 270656, 100, 100, 36, 20, 40, 967, 185241248}},
		{"relaxed-8", true, 8, false, contractReport{183952, 222, 270656, 100, 100, 36, 20, 40, 967, 214536932}},
		{"eager-coalesced", false, 0, true, contractReport{208450, 174, 270656, 100, 100, 36, 20, 40, 910, 188261136}},
		{"relaxed-1-coalesced", true, 1, true, contractReport{219768, 170, 270656, 100, 100, 36, 20, 40, 895, 190294176}},
		{"relaxed-8-coalesced", true, 8, true, contractReport{228842, 174, 270656, 100, 100, 36, 20, 40, 911, 219892288}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fences uint64
			cfg := caf.Config{Images: 4, Seed: 1, Relaxed: tc.relaxed, MaxDelayed: tc.maxDelayed}
			if tc.coalesced {
				cfg.Fabric.Coalescing = caf.Coalescing{MaxMsgs: 4}
			}
			rep, err := caf.Run(cfg, cofenceContract(&fences))
			if err != nil {
				t.Fatal(err)
			}
			got := contractReport{rep.VirtualTime, rep.Msgs, rep.Bytes, rep.SpawnsSent,
				rep.SpawnsExecuted, rep.Copies, rep.FinishBlocks, rep.ReduceRounds, rep.EventsRun, fences}
			if got != tc.want {
				t.Errorf("report\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// A continuation may issue an implicit copy while its image's main is
// parked in a full cofence. The fence waits on that copy too, so the
// relaxed runtime must not defer its initiation: nothing else would
// start it. The run completes at either buffer size and leaves the
// coarrays as the eager run does.
func TestCofenceWaitsOnContinuationCopyRelaxed(t *testing.T) {
	run := func(relaxed bool, maxDelayed int) string {
		var state [2][]int64
		cfg := caf.Config{Images: 2, Seed: 1, Relaxed: relaxed, MaxDelayed: maxDelayed}
		_, err := caf.Run(cfg, func(img *caf.Image) {
			ca := caf.NewCoarray[int64](img, nil, 4)
			if img.Rank() == 0 {
				src := []int64{1, 2, 3, 4}
				caf.CopyAsync(img, ca.Sec(1, 0, 2), caf.Local(src[:2])).OnLocalData(func() {
					caf.CopyAsync(img, ca.Sec(1, 2, 4), caf.Local(src[2:]))
				})
				img.Cofence(caf.AllowNone, caf.AllowNone)
				src[2], src[3] = -1, -1 // the fence freed the second copy's source too
			}
			img.Barrier(nil)
			state[img.Rank()] = append([]int64(nil), ca.Local(img)...)
		})
		if err != nil {
			t.Fatalf("relaxed %v, MaxDelayed %d: %v", relaxed, maxDelayed, err)
		}
		return fmt.Sprint(state)
	}
	want := run(false, 0)
	if want != "[[0 0 0 0] [1 2 3 4]]" {
		t.Fatalf("eager run left %s", want)
	}
	for _, maxDelayed := range []int{1, 8} {
		if got := run(true, maxDelayed); got != want {
			t.Errorf("relaxed, MaxDelayed %d: coarrays %s, want %s", maxDelayed, got, want)
		}
	}
}

// A fence starts the deferred initiations it may not let pass before it
// flushes the coalescing buffers, so a relaxed fence over a coalescing
// fabric waits for its copy as long as one over a plain fabric does,
// not for the flush timer.
func TestCofenceRelaxedCoalescedWaitsNoLonger(t *testing.T) {
	wait := func(relaxed, coalesced bool) caf.Time {
		var waited caf.Time
		cfg := caf.Config{Images: 2, Seed: 1, Relaxed: relaxed}
		if coalesced {
			cfg.Fabric = caf.FabricConfig{Coalescing: caf.Coalescing{MaxMsgs: 4}}
		}
		_, err := caf.Run(cfg, func(img *caf.Image) {
			ca := caf.NewCoarray[int64](img, nil, 1)
			if img.Rank() == 0 {
				caf.CopyAsync(img, ca.Sec(1, 0, 1), caf.Local([]int64{7}))
				start := img.Now()
				img.Cofence(caf.AllowNone, caf.AllowNone)
				waited = img.Now() - start
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return waited
	}
	plain := wait(true, false)
	for _, shape := range []struct{ relaxed, coalesced bool }{{false, false}, {false, true}, {true, true}} {
		if got := wait(shape.relaxed, shape.coalesced); got != plain {
			t.Errorf("relaxed %v, coalesced %v: the fence waited %v, the relaxed uncoalesced one %v",
				shape.relaxed, shape.coalesced, got, plain)
		}
	}
	if plain != 40 {
		t.Errorf("the relaxed fence waited %v for one 8-byte copy, want 40ns", plain)
	}
}
