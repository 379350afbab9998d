package caf_test

import (
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
// same sends at the same points and wakes the same fences.
func TestCofenceContractReports(t *testing.T) {
	for _, tc := range []struct {
		name       string
		relaxed    bool
		maxDelayed int
		want       contractReport
	}{
		{"eager", false, 0, contractReport{172772, 222, 270656, 100, 100, 36, 20, 40, 967, 184721224}},
		{"relaxed-1", true, 1, contractReport{175966, 222, 270656, 100, 100, 36, 20, 40, 967, 185241248}},
		{"relaxed-8", true, 8, contractReport{183952, 222, 270656, 100, 100, 36, 20, 40, 967, 214536932}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fences uint64
			cfg := caf.Config{Images: 4, Seed: 1, Relaxed: tc.relaxed, MaxDelayed: tc.maxDelayed}
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
