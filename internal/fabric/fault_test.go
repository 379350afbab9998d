package fabric

import (
	"testing"

	"caf2go/internal/sim"
)

// faultFabric builds an n-endpoint fabric with plan attached and a
// counting handler for tagTest on every endpoint.
func faultFabric(t testing.TB, n int, plan *FaultPlan) (*sim.Engine, *Fabric, map[int]map[any]int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Faults = plan
	eng := sim.NewEngine(7)
	f := New(eng, n, cfg)
	got := make(map[int]map[any]int)
	for i := 0; i < n; i++ {
		got[i] = make(map[any]int)
	}
	f.RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {
		got[ep.Rank()][m.Payload]++
	})
	return eng, f, got
}

func TestCleanFaultPlanExactlyOnce(t *testing.T) {
	// A zero plan engages the reliability protocol on a clean network:
	// everything behaves exactly once with zero recovery work.
	eng, f, got := faultFabric(t, 2, &FaultPlan{})
	delivered := 0
	for i := 0; i < 20; i++ {
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: i},
			SendOpts{Done: onAck(func() { delivered++ })})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if got[1][i] != 1 {
			t.Errorf("payload %d handled %d times", i, got[1][i])
		}
	}
	if delivered != 20 {
		t.Errorf("Delivered fired %d times, want 20", delivered)
	}
	st := f.Stats()
	if st.Retransmits != 0 || st.DupsDropped != 0 || st.FaultsInjected != 0 || st.Abandoned != 0 {
		t.Errorf("clean plan did recovery work: %+v", st)
	}
	if f.Endpoint(0).Outstanding() != 0 {
		t.Errorf("credits leaked: %d outstanding", f.Endpoint(0).Outstanding())
	}
}

// A send that asks for its injection hears of it once per logical
// message, at the first transmission, however many retransmissions it
// took: a retransmitted put's source buffer was reusable long before.
func TestInjectedOncePerMessageUnderRetransmission(t *testing.T) {
	eng, f, _ := faultFabric(t, 2, &FaultPlan{Drop: 0.4})
	const n = 60
	injected, delivered := make([]int, n), 0
	for i := 0; i < n; i++ {
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: i},
			SendOpts{Injected: true, Done: callbacks{func() { injected[i]++ }, func() { delivered++ }}})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, k := range injected {
		if k != 1 {
			t.Errorf("message %d: Injected ran %d times, want 1", i, k)
		}
	}
	if delivered != n || f.Stats().Retransmits == 0 {
		t.Errorf("%d delivered, %d retransmits: want %d and some", delivered, f.Stats().Retransmits, n)
	}
}

func TestDropsRecoveredByRetransmission(t *testing.T) {
	eng, f, got := faultFabric(t, 2, &FaultPlan{Drop: 0.4})
	delivered := 0
	const n = 60
	for i := 0; i < n; i++ {
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: i},
			SendOpts{Done: onAck(func() { delivered++ })})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got[1][i] != 1 {
			t.Errorf("payload %d handled %d times, want exactly once", i, got[1][i])
		}
	}
	if delivered != n {
		t.Errorf("Delivered fired %d times, want %d", delivered, n)
	}
	st := f.Stats()
	if st.Retransmits == 0 || st.Dropped == 0 {
		t.Errorf("40%% loss caused no retransmits? %+v", st)
	}
	if st.Abandoned != 0 {
		t.Errorf("abandoned %d messages at 40%% loss within the attempt budget", st.Abandoned)
	}
	if f.Endpoint(1).Received != n {
		t.Errorf("Received = %d, want %d unique deliveries", f.Endpoint(1).Received, n)
	}
}

func TestDuplicatesDedupedAndReacked(t *testing.T) {
	// Duplicate every delivery: the handler must still run once per
	// message, and the sender must ignore the redundant acks.
	eng, f, got := faultFabric(t, 2, &FaultPlan{Dup: 1.0})
	delivered := 0
	const n = 25
	for i := 0; i < n; i++ {
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: i},
			SendOpts{Done: onAck(func() { delivered++ })})
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
		t.Errorf("Delivered fired %d times, want %d", delivered, n)
	}
	// At least one dup per message is suppressed and re-acked; spurious
	// retransmits (the dup backlog can push acks past the timeout) may
	// add a few more, all equally deduped.
	st := f.Stats()
	if st.DupsDropped < n {
		t.Errorf("DupsDropped = %d, want ≥ %d (one dup per message)", st.DupsDropped, n)
	}
	if st.DupAcks < n {
		t.Errorf("DupAcks = %d, want ≥ %d (the dup's ack is redundant)", st.DupAcks, n)
	}
}

func TestJitterReordersDelivery(t *testing.T) {
	// With delivery jitter a faulty fabric does not deliver in send order,
	// though the same cost model without a fault plan does.
	plan := &FaultPlan{Jitter: 40 * sim.Microsecond}
	cfg := DefaultConfig()
	if !cfg.Ordered() {
		t.Fatal("test premise: the default config without a fault plan is ordered")
	}
	cfg.Faults = plan
	eng := sim.NewEngine(3)
	f := New(eng, 2, cfg)
	var order []int
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) {
		order = append(order, m.Payload.(int))
	})
	const n = 40
	for i := 0; i < n; i++ {
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: i}, SendOpts{})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("delivered %d of %d", len(order), n)
	}
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Error("40us jitter over 40 sends never reordered delivery")
	}
}

func TestCrashedReceiverAbandonsSends(t *testing.T) {
	eng, f, got := faultFabric(t, 2, &FaultPlan{Crash: map[int]sim.Time{1: 0}})
	delivered := false
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: "x"},
		SendOpts{Done: onAck(func() { delivered = true })})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered || len(got[1]) != 0 {
		t.Error("message delivered to a crashed endpoint")
	}
	st := f.Stats()
	if st.Abandoned != 1 {
		t.Errorf("Abandoned = %d, want 1", st.Abandoned)
	}
	if f.Endpoint(0).Outstanding() != 0 {
		t.Errorf("abandoning did not release the credit: %d outstanding", f.Endpoint(0).Outstanding())
	}
}

func TestCrashedSenderInjectsNothing(t *testing.T) {
	eng, f, got := faultFabric(t, 2, &FaultPlan{Crash: map[int]sim.Time{0: 0}})
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: "x"}, SendOpts{})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 0 || f.Stats().MsgsSent != 0 {
		t.Error("crashed sender still injected traffic")
	}
	if f.Stats().Abandoned != 1 {
		t.Errorf("Abandoned = %d, want 1", f.Stats().Abandoned)
	}
}

func TestTotalLossAbandonsAfterMaxAttempts(t *testing.T) {
	plan := &FaultPlan{Drop: 1.0}
	eng, f, _ := faultFabric(t, 2, plan)
	delivered := false
	f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: "x"},
		SendOpts{Done: onAck(func() { delivered = true })})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Error("Delivered fired on a 100%-loss link")
	}
	st := f.Stats()
	if st.Retransmits != maxAttempts-1 {
		t.Errorf("Retransmits = %d, want %d (%d attempts total)", st.Retransmits, maxAttempts-1, maxAttempts)
	}
	if st.Abandoned != 1 {
		t.Errorf("Abandoned = %d, want 1", st.Abandoned)
	}
	if f.Endpoint(0).Outstanding() != 0 {
		t.Error("abandoned message still holds a credit")
	}
}

func TestStallsDelayButDeliver(t *testing.T) {
	stall := 300 * sim.Microsecond
	withPlan := func(plan *FaultPlan) sim.Time {
		eng, f, got := faultFabric(t, 2, plan)
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: "x"}, SendOpts{})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if got[1]["x"] != 1 {
			t.Fatalf("handled %d times", got[1]["x"])
		}
		return eng.Now()
	}
	clean := withPlan(&FaultPlan{})
	stalled := withPlan(&FaultPlan{StallProb: 1.0, Stall: stall})
	if stalled < clean+stall {
		t.Errorf("stall did not delay: clean end %v, stalled end %v", clean, stalled)
	}
}

func TestFaultScheduleDeterministic(t *testing.T) {
	run := func() (Stats, sim.Time) {
		eng, f, _ := faultFabric(t, 4, &FaultPlan{Drop: 0.3, Dup: 0.2, Jitter: 10 * sim.Microsecond, StallProb: 0.1, Stall: 20 * sim.Microsecond})
		for i := 0; i < 30; i++ {
			src, dst := i%4, (i+1)%4
			f.Endpoint(src).Send(&Msg{Src: int32(src), Dst: int32(dst), Tag: tagTest, Class: AMShort, Bytes: 16, Payload: i}, SendOpts{})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return f.Stats(), eng.Now()
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Errorf("same seed diverged:\n%+v @%v\n%+v @%v", s1, t1, s2, t2)
	}
}

func TestDedupStateMark(t *testing.T) {
	var d dedupState
	for _, seq := range []uint64{0, 2, 1, 5} {
		if !d.mark(seq) {
			t.Errorf("first mark(%d) = false", seq)
		}
	}
	for _, seq := range []uint64{0, 1, 2, 5} {
		if d.mark(seq) {
			t.Errorf("duplicate mark(%d) = true", seq)
		}
	}
	if d.contig != 3 {
		t.Errorf("contig = %d, want 3", d.contig)
	}
	if len(d.seen) != 1 {
		t.Errorf("sparse set holds %d entries, want 1 (seq 5)", len(d.seen))
	}
	if !d.mark(3) || !d.mark(4) {
		t.Error("hole fill rejected")
	}
	if d.contig != 6 || len(d.seen) != 0 {
		t.Errorf("after hole fill: contig=%d sparse=%d, want 6/0", d.contig, len(d.seen))
	}
}

func TestCreditsStillFlowUnderFaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Credits = 4
	cfg.Faults = &FaultPlan{Drop: 0.3}
	eng := sim.NewEngine(11)
	f := New(eng, 2, cfg)
	handled := 0
	f.Endpoint(1).RegisterHandler(tagTest, func(ep *Endpoint, m *Msg) { handled++ })
	const n = 40
	for i := 0; i < n; i++ {
		f.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Tag: tagTest, Class: AMShort, Bytes: 8, Payload: i}, SendOpts{})
	}
	if f.Endpoint(0).QueuedSends() == 0 {
		t.Fatal("test premise: sends must queue behind 4 credits")
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if handled != n {
		t.Errorf("handled %d of %d with credit flow control under loss", handled, n)
	}
	if f.Endpoint(0).Outstanding() != 0 || f.Endpoint(0).QueuedSends() != 0 {
		t.Errorf("credits leaked: outstanding=%d queued=%d", f.Endpoint(0).Outstanding(), f.Endpoint(0).QueuedSends())
	}
}

// zeroOnAck is a sender's record that clears the message it sent at the
// message's ack, as rt does when it recycles its sending record there.
type zeroOnAck struct {
	m     *Msg
	acked *int
}

func (zeroOnAck) Injected() {}
func (z zeroOnAck) Delivered() {
	*z.m = Msg{}
	*z.acked++
}
func (zeroOnAck) Abandoned() {}

// On the reliable path too the ack is a message's last reference: a
// duplicate that lands after it is dropped by the receiver's dedup and
// acked over the wire between the two endpoints, without reading the
// message. A sender that zeroes every message at its ack runs exactly the
// schedule of one that keeps them, across nodes (where an ack timed off
// a zeroed message's ranks would take the intra-node latency). The
// schedule is read as the events run by each 100 ns step, since the last
// events of both runs are the stopped ack timers' stale expiries.
func TestDuplicateAfterAckReadsNoMessage(t *testing.T) {
	run := func(zero bool) (sim.Time, []uint64) {
		cfg := DefaultConfig()
		cfg.ImagesPerNode = 1
		cfg.Faults = &FaultPlan{Dup: 1.0, Jitter: 5 * sim.Microsecond}
		eng := sim.NewEngine(7)
		f := New(eng, 4, cfg)
		handled := map[any]int{}
		f.RegisterHandler(tagTest, func(_ *Endpoint, m *Msg) { handled[m.Payload]++ })
		acked := 0
		const n = 40
		for i := 0; i < n; i++ {
			m := &Msg{Src: int32(i % 4), Dst: int32((i + 1) % 4), Tag: tagTest, Class: AMShort, Bytes: 8, Payload: i}
			var done Completion = onAck(func() { acked++ })
			if zero {
				done = zeroOnAck{m, &acked}
			}
			f.Endpoint(i%4).Send(m, SendOpts{Done: done})
		}
		var events []uint64
		for at := 100 * sim.Nanosecond; !eng.Idle(); at += 100 * sim.Nanosecond {
			if err := eng.RunUntil(at); err != nil {
				t.Fatal(err)
			}
			events = append(events, eng.EventsRun())
		}
		for p, c := range handled {
			if c != 1 {
				t.Errorf("payload %v handled %d times", p, c)
			}
		}
		if len(handled) != n || acked != n {
			t.Errorf("%d handled, %d acked, want %d each", len(handled), acked, n)
		}
		if f.Stats().DupAcks == 0 {
			t.Error("no duplicate was acked after its message: the test exercised nothing")
		}
		return eng.Now(), events
	}
	wantAt, wantEvents := run(false)
	gotAt, gotEvents := run(true)
	if gotAt != wantAt {
		t.Errorf("zeroing each message at its ack: final time %v, want %v", gotAt, wantAt)
	}
	for i := range min(len(gotEvents), len(wantEvents)) {
		if gotEvents[i] != wantEvents[i] {
			t.Fatalf("zeroing each message at its ack: %d events run by %v, want %d",
				gotEvents[i], sim.Time(i+1)*100*sim.Nanosecond, wantEvents[i])
		}
	}
	if len(gotEvents) != len(wantEvents) {
		t.Errorf("zeroing each message at its ack: %d steps, want %d", len(gotEvents), len(wantEvents))
	}
}
