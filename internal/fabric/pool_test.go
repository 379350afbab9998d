package fabric

import (
	"reflect"
	"strings"
	"testing"

	"caf2go/internal/sim"
)

// quarantinePools turns sim.QuarantinePools on for the rest of the test.
func quarantinePools(t *testing.T) {
	prev := sim.QuarantinePools
	sim.QuarantinePools = true
	t.Cleanup(func() { sim.QuarantinePools = prev })
}

// A message on a warm idealized fabric allocates nothing between Send and
// the end of its ack event: the Msg is its own transit record and its own
// entry in the credit queue. Four distinct messages against two credits
// pin the path through the queue, drained inside an ack event, too.
func TestPoolSendDeliverAckDoesNotAllocate(t *testing.T) {
	if sim.GoRace || sim.QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
	cfg := DefaultConfig()
	cfg.Credits = 2
	eng, f := newTestFabric(t, 2, cfg)
	var msgs [4]Msg
	handled, acked := 0, 0
	f.Endpoint(1).RegisterHandler(tagTest, func(_ *Endpoint, m *Msg) {
		if m != &msgs[handled%4] {
			t.Fatalf("handler %d got another message than was sent", handled)
		}
		handled++
	})
	opts := SendOpts{Done: onAck(func() { acked++ })}
	src := f.Endpoint(0)
	queued := -1
	roundTrip := func() {
		for i := range msgs {
			msgs[i] = Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8}
			src.Send(&msgs[i], opts)
		}
		queued = src.QueuedSends()
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm-up: sizes the event heap
	const runs = 100
	if n := testing.AllocsPerRun(runs, roundTrip); n != 0 {
		t.Errorf("allocations per 4 × send→deliver→ack = %v, want 0", n)
	}
	if want := 4 * (runs + 2); handled != want || acked != want {
		t.Errorf("handled %d, acked %d, want %d each", handled, acked, want)
	}
	if queued != 2 || src.QueuedSends() != 0 || src.Outstanding() != 0 {
		t.Errorf("queued %d after the sends, %d queued and %d outstanding after the run; want 2, 0, 0",
			queued, src.QueuedSends(), src.Outstanding())
	}
}

// A coalesced send on a warm fabric makes no object beyond the caller's
// Msg: the batch packet comes off the fabric's free list, released at the
// end of its ack, and the buffer and the batch swap arrays at each flush,
// so neither regrows. Eight messages fill one size flush of eight.
func TestPoolCoalescedSendDoesNotAllocate(t *testing.T) {
	if sim.GoRace || sim.QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
	cfg := DefaultConfig()
	cfg.Coalescing = Coalescing{MaxMsgs: 8}
	eng, f := newTestFabric(t, 2, cfg)
	handled := 0
	f.Endpoint(1).RegisterHandler(tagTest, func(*Endpoint, *Msg) { handled++ })
	src := f.Endpoint(0)
	var msgs [8]Msg
	flush := func() {
		for i := range msgs {
			msgs[i] = Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8}
			src.Send(&msgs[i], SendOpts{})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	flush() // warm-up: the first batch, the buffer's array, the event heap
	const runs = 100
	if n := testing.AllocsPerRun(runs, flush); n != 0 {
		t.Errorf("allocations per 8 coalesced sends = %v, want 0", n)
	}
	if want := 8 * (runs + 2); handled != want {
		t.Errorf("handled %d, want %d", handled, want)
	}
	if st := f.Stats(); st.FlushBySize != runs+2 || st.MsgsSent != runs+2 {
		t.Errorf("%d size flushes, %d packets, want %d each", st.FlushBySize, st.MsgsSent, runs+2)
	}
}

// A batch is released at the end of its ack. Quarantined, it is marked
// dead there, and its ack, injection or dispatch panics if it comes again.
func TestQuarantineReleasedBatchIsDead(t *testing.T) {
	quarantinePools(t)
	cfg := DefaultConfig()
	cfg.Credits = 1
	cfg.Coalescing = Coalescing{MaxMsgs: 2}
	eng, f := newTestFabric(t, 2, cfg)
	handled := 0
	f.Endpoint(1).RegisterHandler(tagTest, func(*Endpoint, *Msg) { handled++ })
	src := f.Endpoint(0)
	for i := 0; i < 4; i++ {
		src.Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8}, SendOpts{})
	}
	// Two size flushes: the first packet took the one credit, the second
	// waits for it.
	if src.qhead == nil || src.qhead.Tag != tagBatch {
		t.Fatal("the second batch is not waiting for a credit")
	}
	b := src.qhead.Payload.(*batch)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if handled != 4 || !b.dead {
		t.Fatalf("handled %d inner messages, batch dead %v; want 4, true", handled, b.dead)
	}
	defer func() {
		if r, _ := recover().(string); r != "fabric: coalesced batch used after its ack released it" {
			t.Errorf("second ack of a released batch: panic %q", r)
		}
	}()
	b.Delivered()
}

// creditStallLog sends n messages through a window of two credits and
// logs every handler run and ack with its virtual time.
func creditStallLog(t *testing.T, n int) []string {
	cfg := DefaultConfig()
	cfg.Credits = 2
	eng, f := newTestFabric(t, 2, cfg)
	var log []string
	f.Endpoint(1).RegisterHandler(tagTest, func(_ *Endpoint, m *Msg) {
		log = append(log, "handled "+eng.Now().String()+" "+string(rune('a'+m.Payload.(int))))
	})
	for i := 0; i < n; i++ {
		i := i
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: i},
			SendOpts{Done: onAck(func() {
				log = append(log, "acked "+eng.Now().String()+" "+string(rune('a'+i)))
			})})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ep := f.Endpoint(0); ep.QueuedSends() != 0 || ep.Outstanding() != 0 {
		t.Errorf("queue=%d outstanding=%d after drain", ep.QueuedSends(), ep.Outstanding())
	}
	return log
}

// Credit-stalled sends leave the send queue inside another message's ack
// event. With the records above the fabric quarantined the run must
// produce the schedule the pooled run produces.
func TestQuarantineCreditStalledSendsDrainInsideAck(t *testing.T) {
	want := creditStallLog(t, 10)
	if len(want) != 20 {
		t.Fatalf("pooled run logged %d entries, want 20", len(want))
	}
	quarantinePools(t)
	if got := creditStallLog(t, 10); !reflect.DeepEqual(got, want) {
		t.Errorf("quarantined schedule differs:\n got %v\nwant %v", got, want)
	}
}

// sendPanics reports the panic of sending m from ep, or "" if none.
func sendPanics(ep *Endpoint, m *Msg) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
		}
	}()
	ep.Send(m, SendOpts{})
	return ""
}

// A Msg is in flight at most once, from Send to the end of its ack: a
// second Send of it, on the wire, in the credit queue, in a coalescing
// buffer or on the reliability protocol, panics with the message's kind.
// After the ack the message is its sender's again.
func TestPoolMsgInFlightTwicePanics(t *testing.T) {
	credits := DefaultConfig()
	credits.Credits = 1
	coalescing := DefaultConfig()
	coalescing.Coalescing = Coalescing{MaxMsgs: 8}
	reliable := DefaultConfig()
	reliable.Faults = &FaultPlan{}
	for name, tc := range map[string]struct {
		cfg   Config
		ahead int // messages sent first, so m waits behind them
	}{
		"wire":       {DefaultConfig(), 0},
		"queued":     {credits, 1},
		"coalescing": {coalescing, 0},
		"reliable":   {reliable, 0},
	} {
		t.Run(name, func(t *testing.T) {
			eng, f := newTestFabric(t, 2, tc.cfg)
			acked := 0
			f.Endpoint(1).RegisterHandler(tagTest, func(*Endpoint, *Msg) {})
			src := f.Endpoint(0)
			for i := 0; i < tc.ahead; i++ {
				src.Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort}, SendOpts{})
			}
			m := &Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8}
			src.Send(m, SendOpts{Done: onAck(func() { acked++ })})
			want := "fabric: short message with tag 1 sent while still in flight"
			if got := sendPanics(src, m); got != want {
				t.Errorf("second Send: panic %q, want %q", got, want)
			}
			src.FlushCoalesced()
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if acked != 1 {
				t.Fatalf("acked %d times, want 1", acked)
			}
			if got := sendPanics(src, m); got != "" {
				t.Errorf("Send after the ack: panic %q", got)
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A transit event that finds its message off the wire is a stale one.
	eng, f := newTestFabric(t, 2, DefaultConfig())
	f.Endpoint(1).RegisterHandler(tagTest, func(*Endpoint, *Msg) {})
	m := &Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMMedium}
	f.Endpoint(0).Send(m, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "medium message with tag 1 that is not on the wire") {
			t.Errorf("stale transit event: panic %q", r)
		}
	}()
	(*transit)(m).RunEvent()
}

// The reliability protocol does not run messages as their own events: a
// duplicate can land after the ack, still pointing at the message (which
// it does not read: TestDuplicateAfterAckReadsNoMessage). Every message
// is handled and acked once, and each is its sender's again once its ack
// landed.
func TestPoolReliableFabricLetsNothing(t *testing.T) {
	eng, f, got := faultFabric(t, 2, &FaultPlan{Dup: 1.0, Jitter: 30 * sim.Microsecond})
	delivered := 0
	const n = 25
	msgs := make([]*Msg, n)
	for i := range msgs {
		msgs[i] = &Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: i}
		f.Endpoint(0).Send(msgs[i], SendOpts{Done: onAck(func() { delivered++ })})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, m := range msgs {
		if got[1][i] != 1 {
			t.Errorf("payload %d handled %d times", i, got[1][i])
		}
		if m.stage != stageIdle {
			t.Errorf("message %d still in stage %d after its ack", i, m.stage)
		}
	}
	if delivered != n {
		t.Errorf("Delivered fired %d times, want %d", delivered, n)
	}
	if f.Stats().DupAcks == 0 {
		t.Error("no duplicate landed after its message's ack: the test exercised nothing")
	}
}

// onAck is a delivery-ack callback as a Completion.
type onAck func()

func (onAck) Injected()    {}
func (f onAck) Delivered() { f() }
func (onAck) Abandoned()   {}

// callbacks is an injection and a delivery-ack callback as a Completion.
type callbacks struct{ injected, delivered func() }

func (c callbacks) Injected()  { c.injected() }
func (c callbacks) Delivered() { c.delivered() }
func (callbacks) Abandoned()   {}
