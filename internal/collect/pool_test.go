package collect

import (
	"reflect"
	"testing"
	"unsafe"

	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/team"
)

// quarantined runs body with every released record quarantined.
func quarantined(body func()) {
	prev := sim.QuarantinePools
	sim.QuarantinePools = true
	defer func() { sim.QuarantinePools = prev }()
	body()
}

// A collective instance is released once its last ack is in and its
// synchronous caller has read the result. An ack that reaches it after
// that (a protocol bug) must fail loudly, not count down the next
// collective that took the record.
func TestQuarantineLateAckOnReleasedInstancePanics(t *testing.T) {
	var released *inst
	quarantined(func() {
		runSPMD(t, 4, 1, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
			in := c.start(nil, img, w, kBarrier, 0, Sum, nil, nil, 0, 0)
			in.own.WaitLocalData(p)
			if img.Rank() == 0 {
				released = in
			}
			c.doneWith(in)
		})
	})
	if !released.dead {
		t.Fatal("the root's barrier instance was not released")
	}
	for name, ack := range map[string]func(){"Delivered": released.Delivered, "Abandoned": released.Abandoned} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released instance did not panic", name)
				}
			}()
			ack()
		}()
	}
}

// Every collective, blocking and asynchronous, on pooled and on
// quarantined records: the results and the end time are the same, so
// no record is read after its release and none is shared between two
// live collectives.
func TestQuarantineCollectivesEqualPooled(t *testing.T) {
	type out struct {
		Results [][]any
		End     sim.Time
	}
	run := func() out {
		const n = 7
		res := make([][]any, n)
		end := runSPMD(t, n, 3, func(p *sim.Proc, img *rt.ImageKernel, c *Comm, w *team.Team) {
			r := img.Rank()
			keep := func(v any) { res[r] = append(res[r], v) }
			for round := 0; round < 3; round++ {
				c.Barrier(p, img, w)
				keep(c.Allreduce(p, img, w, Sum, []int64{int64(r), int64(round)}))
				keep(c.Reduce(p, img, w, round%n, Max, []int64{int64(r * round)}))
				keep(c.Broadcast(p, img, w, (round+1)%n, r*10, 8))
				keep(c.Gather(p, img, w, 2, r, 8))
				keep(c.Scatter(p, img, w, 1, []any{0, 1, 2, 3, 4, 5, 6}, 8))
				keep(c.Alltoall(p, img, w, []any{r, r, r, r, r, r, r}, 8))
				keep(c.Scan(p, img, w, Sum, []int64{int64(r)}))
				keep(c.Sort(p, img, w, []int64{int64(n - r), int64(round)}))
				h := new(Handle)
				c.AllreduceAsync(h, img, w, Sum, []int64{1}, 0)
				b := new(Handle)
				c.BarrierAsync(b, img, w, 0)
				h.WaitLocalOp(p)
				b.WaitLocalOp(p)
				keep(h.Result())
			}
		})
		return out{res, end}
	}
	pooled := run()
	var quar out
	quarantined(func() { quar = run() })
	if !reflect.DeepEqual(pooled, quar) {
		t.Errorf("pooled and quarantined runs differ:\npooled:      %v\nquarantined: %v", pooled, quar)
	}
}

// A collective instance, with the Handle a blocking call waits on inside
// it, fits the 288-byte size class: the Comm carves its instances from
// 4 KiB slabs, fourteen to a slab.
func TestPoolInstFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(inst{}); got > 288 {
		t.Errorf("sizeof(inst) = %d, want ≤ 288", got)
	}
}
