package rt

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"caf2go/internal/fabric"
	"caf2go/internal/failure"
	"caf2go/internal/sim"
)

// pooledAndQuarantined runs body twice: with the record pools recycling,
// and with every released record quarantined (dead, never taken again).
// The second run fails loudly on any use of a record after what its
// owner took for the last reference.
func pooledAndQuarantined(t *testing.T, body func(t *testing.T)) {
	t.Run("pooled", body)
	t.Run("quarantined", func(t *testing.T) {
		prev := sim.QuarantinePools
		sim.QuarantinePools = true
		defer func() { sim.QuarantinePools = prev }()
		body(t)
	})
}

func skipUnlessPinned(t *testing.T) {
	if sim.GoRace || sim.QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
}

// A one-way message on a warm kernel allocates nothing in rt or below:
// outMsg and Delivery come back from their free lists, and the fabric
// keeps the message's transit state in the outMsg's Msg. The
// second handler is the rt.am_dispatch probe's: Detach and Complete
// before returning.
func TestPoolSendDispatchDoesNotAllocate(t *testing.T) {
	skipUnlessPinned(t)
	eng, k := newTestKernel(2)
	tr := &countingTracker{}
	k.SetTracker(tr)
	handled := 0
	k.RegisterHandler(tagPing, func(d *Delivery) { handled++ })
	k.RegisterHandler(tagWork, func(d *Delivery) {
		d.Detach()
		d.Complete()
		handled++
	})
	var acked ackCount
	opts := SendOpts{Class: fabric.AMShort, Bytes: 8, Finish: 1, Done: &acked}
	src := k.Image(0)
	send := func() {
		src.Send(1, tagPing, nil, opts)
		src.Send(1, tagWork, nil, opts)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	send() // warm-up
	const runs = 100
	if n := testing.AllocsPerRun(runs, send); n != 0 {
		t.Errorf("allocations per two sends = %v, want 0", n)
	}
	if want := 2 * (runs + 2); handled != want || int(acked) != want || tr.acks != want || tr.completes != want {
		t.Errorf("handled %d, acked %d, tracker acks %d completes %d, want %d each",
			handled, acked, tr.acks, tr.completes, want)
	}
}

// A Call and its Reply allocate nothing either: the wait slot is
// recycled and travels by pointer, with no map and no boxed reply.
func TestPoolCallReplyDoesNotAllocate(t *testing.T) {
	skipUnlessPinned(t)
	eng, k := newTestKernel(2)
	k.RegisterHandler(tagEcho, func(d *Delivery) { d.Reply(d.Payload, 8) })
	src := k.Image(0)
	var allocs float64
	src.Go("caller", func(p *sim.Proc) {
		payload := any("ping")
		call := func() {
			if got := src.Call(p, 1, tagEcho, payload, SendOpts{Class: fabric.AMShort, Bytes: 8}); got != payload {
				t.Errorf("reply = %v", got)
			}
		}
		call() // warm-up
		allocs = testing.AllocsPerRun(100, call)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("allocations per Call + Reply = %v, want 0", allocs)
	}
	if k.slots.Len() != 1 {
		t.Errorf("%d wait slots pooled, want the one the caller kept reusing", k.slots.Len())
	}
}

// A Call aborted by a failure declaration leaves its reply in flight.
// The reply must be dropped — whether the slot is free, quarantined or
// already taken by another call — and must not leak into the proc's next
// Call.
func TestQuarantineLateReplyAfterAbortedCall(t *testing.T) {
	pooledAndQuarantined(t, func(t *testing.T) {
		eng, k := newTestKernel(3)
		det := failure.New(eng, 3, failure.Config{Enabled: true}, map[int]sim.Time{2: 10 * sim.Microsecond})
		k.SetDetector(det)
		det.Subscribe(func(int, sim.Time) { eng.WakeAllParked() })
		replied := false
		k.RegisterHandler(tagWork, func(d *Delivery) {
			d.Detach()
			d.Img.Engine().After(sim.Millisecond, func() { // long after the declaration
				d.Reply("late", 8)
				d.Complete()
				replied = true
			})
		})
		k.RegisterHandler(tagEcho, func(d *Delivery) { d.Reply("echo", 8) })
		src := k.Image(0)
		call := func(p *sim.Proc, tag uint16) (reply any, aborted bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(failure.Abort); !ok {
						panic(r)
					}
					aborted = true
				}
			}()
			return src.Call(p, 1, tag, nil, SendOpts{}), false
		}
		var first, second any
		var firstAborted, secondAborted bool
		var secondAt sim.Time
		src.Go("caller", func(p *sim.Proc) {
			first, firstAborted = call(p, tagWork)
			// Fail-stop: once an image is dead every Call aborts at once,
			// so this one takes the slot the first released and lets it
			// go again while the first reply is still on its way.
			second, secondAborted = call(p, tagEcho)
			secondAt = p.Now()
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if !firstAborted || first != nil {
			t.Errorf("first call: reply %v, aborted %v; want an abort", first, firstAborted)
		}
		if !secondAborted || second != nil {
			t.Errorf("second call: reply %v, aborted %v; want an abort of its own", second, secondAborted)
		}
		if !replied || eng.Now() < sim.Millisecond || secondAt >= sim.Millisecond {
			t.Errorf("late reply sent=%v at %v, second call over at %v: the reply was not late", replied, eng.Now(), secondAt)
		}
	})
}

// A reply whose id is not the slot's answers a call that is over, even
// when another call has taken the slot since.
func TestPoolStaleReplyDoesNotAnswerRecycledSlot(t *testing.T) {
	eng, k := newTestKernel(2)
	ep := k.Image(0).Endpoint()
	w := &callSlot{id: 7}
	stale := &fabric.Msg{Payload: &env{payload: "stale", replyID: 5, slot: w}}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("stale reply without a detector did not panic")
			}
		}()
		k.handleReply(ep, stale)
	}()
	k.SetDetector(failure.New(eng, 2, failure.Config{Enabled: true}, nil))
	k.handleReply(ep, stale)
	if w.done || w.payload != nil {
		t.Errorf("stale reply answered the slot's new call: %+v", w)
	}
}

// A detached Delivery is the handler's until Complete: a thousand later
// dispatches must neither take its record nor disturb what it holds.
func TestQuarantineDetachedDeliveryOutlivesLaterDispatches(t *testing.T) {
	pooledAndQuarantined(t, func(t *testing.T) {
		eng, k := newTestKernel(2)
		tr := &recordingTracker{}
		k.SetTracker(tr)
		var kept *Delivery
		k.RegisterHandler(tagWork, func(d *Delivery) {
			d.Detach()
			kept = d
		})
		later := 0
		k.RegisterHandler(tagPing, func(d *Delivery) {
			if d == kept {
				t.Fatal("a later dispatch was handed the detached record")
			}
			later++
		})
		src := k.Image(0)
		src.Send(1, tagWork, "kept", SendOpts{Finish: 5, Bytes: 24})
		for i := 0; i < 1000; i++ {
			src.Send(1, tagPing, i, SendOpts{})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if later != 1000 {
			t.Fatalf("%d later dispatches, want 1000", later)
		}
		if kept.Payload != "kept" || kept.Src != 0 || kept.Bytes != 24 || kept.Track() != stamped(5) {
			t.Errorf("detached delivery was overwritten: %+v", kept)
		}
		tr.log = nil
		kept.Complete()
		if want := []string{"complete@1<-0"}; !reflect.DeepEqual(tr.log, want) {
			t.Errorf("Complete logged %v, want %v", tr.log, want)
		}
		if sim.QuarantinePools {
			defer func() {
				if r := recover(); r != "rt: Delivery used after its completion" {
					t.Errorf("accessor on a completed delivery: panic = %v, want the record kind", r)
				}
			}()
			kept.Track()
		}
	})
}

// Detach and Complete before the handler returns (the rt.am_dispatch
// probe's handler): dispatch must not complete the delivery again, and
// must not be left holding a record somebody else has taken.
func TestQuarantineDetachCompleteInsideHandler(t *testing.T) {
	pooledAndQuarantined(t, func(t *testing.T) {
		eng, k := newTestKernel(2)
		tr := &countingTracker{}
		k.SetTracker(tr)
		k.RegisterHandler(tagWork, func(d *Delivery) {
			d.Detach()
			d.Complete()
		})
		const n = 50
		for i := 0; i < n; i++ {
			k.Image(0).Send(1, tagWork, i, SendOpts{Finish: 1})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if tr.recvs != n || tr.completes != n || tr.acks != n {
			t.Errorf("recv/complete/ack = %d/%d/%d, want %d each", tr.recvs, tr.completes, tr.acks, n)
		}
		if !sim.QuarantinePools && k.deliveries.Len() != 1 {
			t.Errorf("%d deliveries pooled, want the one every dispatch reused", k.deliveries.Len())
		}
	})
}

// The ack of a coalesced batch is the ack of every message inside it:
// each inner outMsg is released by its own callback, exactly once (a
// second release would run a dead record's entry point).
func TestQuarantineCoalescedBatchReleasesEachOutMsgOnce(t *testing.T) {
	pooledAndQuarantined(t, func(t *testing.T) {
		cfg := fabric.DefaultConfig()
		cfg.Coalescing = fabric.Coalescing{MaxMsgs: 8}
		eng := sim.NewEngine(1)
		k := NewKernel(eng, 2, cfg)
		tr := &countingTracker{}
		k.SetTracker(tr)
		var got []int
		k.RegisterHandler(tagWork, func(d *Delivery) { got = append(got, d.Payload.(int)) })
		const n = 20 // two full batches and a timer flush of four
		var delivered ackCount
		for i := 0; i < n; i++ {
			k.Image(0).Send(1, tagWork, i, SendOpts{Finish: 1, Class: fabric.AMShort, Bytes: 8, Done: &delivered})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("handled %v, want 0..%d in order", got, n-1)
		}
		if int(delivered) != n || tr.acks != n {
			t.Errorf("Done.Delivered %d, tracker acks %d, want %d each", delivered, tr.acks, n)
		}
		if st := k.Fabric().Stats(); st.MsgsCoalesced < 16 {
			t.Errorf("MsgsCoalesced = %d: the sends did not ride in batches", st.MsgsCoalesced)
		}
		if !sim.QuarantinePools && k.outMsgs.Len() != n {
			t.Errorf("%d outMsgs pooled after %d sends in flight together", k.outMsgs.Len(), n)
		}
	})
}

// Under a fault plan a duplicate or a retransmission can land after the
// ack and still reads the message, so an outMsg is never released there:
// the pool stays empty and every message is handled and acked once.
func TestQuarantineDuplicateAfterAckLetsNothing(t *testing.T) {
	pooledAndQuarantined(t, func(t *testing.T) {
		eng, k := newFaultyKernel(5, 4, &fabric.FaultPlan{Dup: 1.0, Jitter: 30 * sim.Microsecond})
		tr := &countingTracker{}
		k.SetTracker(tr)
		handled := map[string]int{}
		k.RegisterHandler(tagWork, func(d *Delivery) { handled[fmt.Sprint(d.Src, "→", d.Img.Rank(), ":", d.Payload)]++ })
		const n = 40
		for i := 0; i < n; i++ {
			k.Image(i%4).Send((i+1)%4, tagWork, i, SendOpts{Finish: 1})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for key, c := range handled {
			if c != 1 {
				t.Errorf("%s handled %d times", key, c)
			}
		}
		if len(handled) != n || tr.acks != n || tr.completes != n {
			t.Errorf("handled %d, acks %d, completes %d, want %d each", len(handled), tr.acks, tr.completes, n)
		}
		if st := k.Fabric().Stats(); st.DupAcks == 0 {
			t.Error("no duplicate landed after its message's ack: the test exercised nothing")
		}
		if k.outMsgs.Len() != 0 {
			t.Errorf("%d outMsgs released on a reliable fabric", k.outMsgs.Len())
		}
	})
}

// The sending record fits the 176-byte size class with the fabric's
// transit state inside it: a credit-stalled burst holds one per message.
// The Msg keeps ranks and size in 32 bits and its sender's callbacks
// without NoCoalesce, which only Send reads; the envelope's Track is the
// finish id, the parity and the sender's box, nothing more. The Delivery
// adds the receiver's box to it and fits the 112-byte class, and the
// SendOpts a caller passes by value stay within 64 bytes.
func TestPoolOutMsgFitsItsSizeClass(t *testing.T) {
	for _, pin := range []struct {
		record    string
		got, want uintptr
	}{
		{"outMsg", unsafe.Sizeof(outMsg{}), 176},
		{"fabric.Msg", unsafe.Sizeof(fabric.Msg{}), 88},
		{"Delivery", unsafe.Sizeof(Delivery{}), 112},
		{"Track", unsafe.Sizeof(Track{}), 32},
		{"SendOpts", unsafe.Sizeof(SendOpts{}), 64},
	} {
		if pin.got > pin.want {
			t.Errorf("sizeof(%s) = %d, want ≤ %d", pin.record, pin.got, pin.want)
		}
	}
}

// Records are written in place, field by field, so nothing clears what a
// send or a dispatch does not write but the release before. The pooled
// outMsgs and Delivery that carried a tracked Call (its request, its
// reply, a detached and replied delivery) then serve two untracked
// one-way messages, which must see none of it.
func TestQuarantineNoStaleFieldsAfterCall(t *testing.T) {
	pooledAndQuarantined(t, func(t *testing.T) {
		eng, k := newTestKernel(2)
		k.SetTracker(&countingTracker{})
		var called *Delivery
		k.RegisterHandler(tagEcho, func(d *Delivery) {
			called = d
			d.Detach()
			d.Reply("pong", 8)
			d.Complete()
		})
		reused := 0
		k.RegisterHandler(tagPing, func(d *Delivery) {
			if d == called {
				reused++
			}
			if d.CanReply() || d.Track() != (Track{}) {
				t.Errorf("one-way message %v after a Call: CanReply %v, Track %+v", d.Payload, d.CanReply(), d.Track())
			}
			if d.replyID != 0 || d.slot != nil || d.rbox != nil || d.replied || d.detached || d.done {
				t.Errorf("one-way message %v after a Call: stale reply or completion state %+v", d.Payload, d)
			}
		})
		src := k.Image(0)
		pooled := -1
		src.Go("caller", func(p *sim.Proc) {
			if got := src.Call(p, 1, tagEcho, "ping", SendOpts{Finish: 3, Class: fabric.AMShort, Bytes: 8}); got != "pong" {
				t.Errorf("reply = %v", got)
			}
			p.Sleep(sim.Millisecond) // every ack of the Call lands
			pooled = k.outMsgs.Len()
			for i := 0; i < 2; i++ {
				src.Send(1, tagPing, i, SendOpts{Class: fabric.AMShort, Bytes: 8})
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if sim.QuarantinePools {
			return
		}
		// The request's and the reply's outMsgs carried the two one-way
		// messages, and the Call's Delivery both: the test exercised reuse.
		if pooled != 2 || reused != 2 {
			t.Errorf("%d outMsgs pooled after the Call, Call's Delivery reused %d times; want 2 and 2", pooled, reused)
		}
	})
}

// ackCount is a Completion that counts deliveries.
type ackCount int

func (c *ackCount) Injected()  {}
func (c *ackCount) Delivered() { *c++ }
func (c *ackCount) Abandoned() {}

type logDone struct{ log *[]string }

func (d logDone) Injected()  {}
func (d logDone) Delivered() { *d.log = append(*d.log, "done") }
func (d logDone) Abandoned() { *d.log = append(*d.log, "done abandoned") }

// A send's completion is its Done record, run once at the ack; a send
// without one runs nothing.
func TestPoolSendCallbackForms(t *testing.T) {
	eng, k := newTestKernel(2)
	k.RegisterHandler(tagPing, func(*Delivery) {})
	var log []string
	done := logDone{&log}
	src := k.Image(0)
	for _, opts := range []SendOpts{
		{},
		{Done: done},
	} {
		src.Send(1, tagPing, nil, opts)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{"done"}; !reflect.DeepEqual(log, want) {
		t.Errorf("callbacks ran %v, want %v", log, want)
	}
}
