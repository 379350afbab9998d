package fabric

import (
	"reflect"
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
// the end of its ack event: the flight is recycled and its three events
// are bound methods made once. The Msg is the caller's, reused here.
func TestPoolSendDeliverAckDoesNotAllocate(t *testing.T) {
	if sim.GoRace || sim.QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
	// Four sends against two credits: the path through the send queue,
	// drained inside an ack event, is pinned too.
	cfg := DefaultConfig()
	cfg.Credits = 2
	eng, f := newTestFabric(t, 2, cfg)
	handled, acked := 0, 0
	f.Endpoint(1).RegisterHandler(tagTest, func(*Endpoint, *Msg) { handled++ })
	m := &Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8}
	opts := SendOpts{OnDelivered: func() { acked++ }}
	roundTrip := func() {
		for i := 0; i < 4; i++ {
			f.Endpoint(0).Send(m, opts)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm-up: fills the flight pool, sizes the event heap
	const runs = 100
	if n := testing.AllocsPerRun(runs, roundTrip); n != 0 {
		t.Errorf("allocations per 4 × send→deliver→ack = %v, want 0", n)
	}
	if want := 4 * (runs + 2); handled != want || acked != want {
		t.Errorf("handled %d, acked %d, want %d each", handled, acked, want)
	}
	// An ack event launches the next stalled send before it lets go of
	// its own flight: one record more than the credit window.
	if got := f.flights.Len(); got != 3 {
		t.Errorf("%d flights pooled, want 3 (two credits + the one acking)", got)
	}
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
			SendOpts{OnDelivered: func() {
				log = append(log, "acked "+eng.Now().String()+" "+string(rune('a'+i)))
			}})
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
// event, while that message's flight is still held. With released
// records quarantined the run must not touch a dead flight, and must
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

// A released flight is dead under quarantine: it is not kept, and an
// event that still held one of its bound methods would panic with the
// record's kind.
func TestQuarantineDeadFlightPanics(t *testing.T) {
	quarantinePools(t)
	_, f := newTestFabric(t, 2, DefaultConfig())
	src := f.Endpoint(0)
	src.outstanding = 1
	fl := &flight{f: f, m: &Msg{Src: 0, Dst: 1}, src: src, dst: f.Endpoint(1)}
	fl.ack() // the last event of a message: releases the record
	if !fl.dead || f.flights.Len() != 0 {
		t.Fatalf("after its ack event: dead=%v, %d flights kept", fl.dead, f.flights.Len())
	}
	for name, entry := range map[string]func(){"arrive": fl.arrive, "handled": fl.handled, "ack": fl.ack} {
		func() {
			defer func() {
				if r := recover(); r != "fabric: flight used after its ack event" {
					t.Errorf("%s on a dead flight: panic = %v, want the record kind", name, r)
				}
			}()
			entry()
		}()
	}
}

// The reliability protocol never uses pooled flights: a duplicate can
// land after the ack, still holding the message.
func TestPoolReliableFabricLetsNothing(t *testing.T) {
	eng, f, got := faultFabric(t, 2, &FaultPlan{Dup: 1.0, Jitter: 30 * sim.Microsecond})
	delivered := 0
	const n = 25
	for i := 0; i < n; i++ {
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: i},
			SendOpts{OnDelivered: func() { delivered++ }})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got[1][i] != 1 {
			t.Errorf("payload %d handled %d times", i, got[1][i])
		}
	}
	if delivered != n {
		t.Errorf("OnDelivered fired %d times, want %d", delivered, n)
	}
	if f.Stats().DupAcks == 0 {
		t.Error("no duplicate landed after its message's ack: the test exercised nothing")
	}
	if f.flights.Len() != 0 {
		t.Errorf("%d flights pooled on a reliable fabric", f.flights.Len())
	}
}
