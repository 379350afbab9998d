package rt

import (
	"testing"

	"caf2go/internal/fabric"
	"caf2go/internal/sim"
)

// countingTracker tallies lifecycle callbacks per phase — the audit
// instrument for the dedup contract: under retransmission and duplicated
// delivery, each tracked message must hit every phase exactly once.
type countingTracker struct {
	sends, recvs, completes, acks, abandons int
	rbox                                    countedBox // what OnReceive hands out
}

// countedBox is countingTracker's record on the receiver.
type countedBox struct{}

func (*countedBox) TrackBox() {}

func (c *countingTracker) OnSend(src *ImageKernel, finish int64) Track {
	c.sends++
	return Track{ID: finish}
}
func (c *countingTracker) OnReceive(dst *ImageKernel, ctx Track) TrackBox {
	c.recvs++
	return &c.rbox
}
func (c *countingTracker) OnComplete(*ImageKernel, int, Track, TrackBox) { c.completes++ }
func (c *countingTracker) OnAck(*ImageKernel, int, Track)                { c.acks++ }
func (c *countingTracker) OnAbandoned(src *ImageKernel, ctx Track)       { c.abandons++ }

func newFaultyKernel(seed int64, n int, plan *fabric.FaultPlan) (*sim.Engine, *Kernel) {
	cfg := fabric.DefaultConfig()
	cfg.Faults = plan
	eng := sim.NewEngine(seed)
	return eng, NewKernel(eng, n, cfg)
}

// TestTrackerExactlyOncePerPhaseUnderFaults pins the invariant the finish
// plane's counters rest on: duplicated deliveries must not double-count
// OnReceive/OnComplete, and the duplicate acks they generate must not
// double-count OnAck — otherwise sent/delivered and received/completed
// parity would break and termination detection would fire early or hang.
func TestTrackerExactlyOncePerPhaseUnderFaults(t *testing.T) {
	plans := []struct {
		name string
		plan *fabric.FaultPlan
	}{
		{"dup-every-delivery", &fabric.FaultPlan{Dup: 1.0}},
		{"lossy-and-dup", &fabric.FaultPlan{Drop: 0.3, Dup: 0.3, Jitter: 10 * sim.Microsecond}},
	}
	for _, tc := range plans {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng, k := newFaultyKernel(5, 4, tc.plan)
			tr := &countingTracker{}
			k.SetTracker(tr)
			handled := 0
			k.RegisterHandler(tagWork, func(d *Delivery) { handled++ })
			const n = 40
			for i := 0; i < n; i++ {
				src, dst := i%4, (i+1)%4
				k.Image(src).Send(dst, tagWork, i, SendOpts{Finish: int64(i + 1)})
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if handled != n {
				t.Errorf("handler ran %d times, want %d", handled, n)
			}
			if tr.sends != n || tr.recvs != n || tr.completes != n || tr.acks != n {
				t.Errorf("tracker phases send/recv/complete/ack = %d/%d/%d/%d, want all %d",
					tr.sends, tr.recvs, tr.completes, tr.acks, n)
			}
			fs := k.Fabric().Stats()
			if fs.DupsDropped == 0 {
				t.Error("plan injected no duplicates — test exercised nothing")
			}
		})
	}
}

// TestCallCorrelationSurvivesFaults: request/reply round trips must
// correlate exactly once even when both directions are lossy and
// duplicated — a duplicated reply reaching handleReply twice would panic
// on the consumed call id.
func TestCallCorrelationSurvivesFaults(t *testing.T) {
	eng, k := newFaultyKernel(9, 3, &fabric.FaultPlan{Drop: 0.3, Dup: 0.5, Jitter: 5 * sim.Microsecond})
	k.RegisterHandler(tagEcho, func(d *Delivery) {
		d.Reply(d.Payload.(int)*10, 8)
	})
	results := make([]any, 6)
	for i := 0; i < 6; i++ {
		i := i
		k.Image(0).Go("caller", func(p *sim.Proc) {
			results[i] = k.Image(0).Call(p, 1+i%2, tagEcho, i, SendOpts{})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*10 {
			t.Errorf("call %d got %v, want %d", i, r, i*10)
		}
	}
}
