package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000000s"},
		{Forever, "forever"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeSeconds(t *testing.T) {
	if s := (2500 * Millisecond).Seconds(); s != 2.5 {
		t.Errorf("Seconds() = %v, want 2.5", s)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestSameTimeEventsRunFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order at %d: got %d", i, v)
		}
	}
}

func TestAtClampsToNow(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.At(100, func() {
		e.At(50, func() { ran = true }) // in the past; must still run
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("past-scheduled event never ran")
	}
	if e.Now() != 100 {
		t.Errorf("Now() = %v, want 100 (no time travel)", e.Now())
	}
}

func TestAfterNegativeDelay(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.At(10, func() { e.After(-5, func() { ran = true }) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event with negative delay never ran")
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(25 * Microsecond)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 25*Microsecond {
		t.Errorf("woke at %v, want 25us", wake)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine(7)
		var log []string
		for i := 0; i < 3; i++ {
			i := i
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Time(10 * (i + 1)))
					log = append(log, fmt.Sprintf("p%d@%d", i, p.Now()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != 9 {
		t.Fatalf("expected 9 log entries, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic interleaving at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestParkUnpark(t *testing.T) {
	e := NewEngine(1)
	var seen Time
	var waiter *Proc
	waiter = e.Go("waiter", func(p *Proc) {
		p.Park("test wait")
		seen = p.Now()
	})
	e.At(40, func() { waiter.Unpark() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != 40 {
		t.Errorf("waiter resumed at %v, want 40", seen)
	}
}

func TestUnparkBeforeParkStoresPermit(t *testing.T) {
	e := NewEngine(1)
	done := false
	var p1 *Proc
	p1 = e.Go("p1", func(p *Proc) {
		p.Sleep(10) // let the unpark land first
		p.Park("should not block")
		done = true
	})
	e.At(5, func() { p1.Unpark() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("stored permit was lost")
	}
}

func TestDoubleUnparkCoalesces(t *testing.T) {
	e := NewEngine(1)
	wakes := 0
	var p1 *Proc
	p1 = e.Go("p1", func(p *Proc) {
		p.Park("w1")
		wakes++
		// Second park should block until the deadline unpark at t=90,
		// not be satisfied by a duplicate of the first wake.
		p.Park("w2")
		wakes++
	})
	e.At(10, func() { p1.Unpark(); p1.Unpark() })
	e.At(90, func() { p1.Unpark() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 2 {
		t.Errorf("wakes = %d, want 2", wakes)
	}
	if e.Now() != 90 {
		t.Errorf("finished at %v, want 90 (second park must wait)", e.Now())
	}
}

func TestWaitUntil(t *testing.T) {
	e := NewEngine(1)
	counter := 0
	var p1 *Proc
	p1 = e.Go("p1", func(p *Proc) {
		p.WaitUntil("counter==3", func() bool { return counter == 3 })
		if counter != 3 {
			t.Errorf("resumed with counter=%d", counter)
		}
	})
	for i := 1; i <= 3; i++ {
		e.At(Time(i*10), func() { counter++; p1.Unpark() })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	e.Go("stuck", func(p *Proc) { p.Park("never woken") })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Parked) != 1 {
		t.Fatalf("parked = %v, want 1 entry", dl.Parked)
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d after Shutdown, want 0", e.LiveProcs())
	}
}

func TestShutdownRunsDefers(t *testing.T) {
	e := NewEngine(1)
	deferred := false
	e.Go("stuck", func(p *Proc) {
		defer func() { deferred = true }()
		p.Park("never woken")
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
	e.Shutdown()
	if !deferred {
		t.Error("defer in aborted proc did not run")
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Go("bad", func(p *Proc) { panic("boom") })
	err := e.Run()
	if err == nil || !errors.Is(err, err) || err.Error() == "" {
		t.Fatalf("expected panic error, got %v", err)
	}
	if want := `sim: proc "bad" panicked: boom`; err.Error() != want {
		t.Errorf("err = %q, want %q", err.Error(), want)
	}
	e.Shutdown()
}

func TestRunUntilPausesAndResumes(t *testing.T) {
	e := NewEngine(1)
	var hits []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { hits = append(hits, at) })
	}
	if err := e.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || e.Now() != 25 {
		t.Fatalf("after RunUntil(25): hits=%v now=%v", hits, e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 4 {
		t.Fatalf("after Run: hits=%v", hits)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	ran2 := false
	e.At(10, func() { e.Stop() })
	e.At(20, func() { ran2 = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran2 {
		t.Fatal("event after Stop ran")
	}
	if err := e.Run(); err != nil { // resume
		t.Fatal(err)
	}
	if !ran2 {
		t.Fatal("resumed Run skipped remaining event")
	}
}

func TestGoAtStartsLater(t *testing.T) {
	e := NewEngine(1)
	var started Time
	e.GoAt(123, "late", func(p *Proc) { started = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if started != 123 {
		t.Errorf("started at %v, want 123", started)
	}
}

func TestDeriveRandIsStable(t *testing.T) {
	e1 := NewEngine(42)
	e2 := NewEngine(42)
	r1 := e1.DeriveRand(7)
	r2 := e2.DeriveRand(7)
	for i := 0; i < 10; i++ {
		if a, b := r1.Int63(), r2.Int63(); a != b {
			t.Fatalf("derived rng diverged at draw %d: %d vs %d", i, a, b)
		}
	}
	if e1.DeriveRand(1).Int63() == e1.DeriveRand(2).Int63() {
		t.Error("different ids produced identical first draws (suspicious)")
	}
}

func TestIdleAndLiveProcs(t *testing.T) {
	e := NewEngine(1)
	if !e.Idle() {
		t.Error("new engine not idle")
	}
	e.Go("p", func(p *Proc) { p.Sleep(5) })
	if e.Idle() {
		t.Error("engine with live proc reports idle")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Idle() || e.LiveProcs() != 0 {
		t.Error("engine not idle after Run")
	}
}

// Property: for any batch of (time, id) pairs, events fire in
// nondecreasing time order with ties broken by insertion order.
func TestPropertyEventOrdering(t *testing.T) {
	prop := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		e := NewEngine(3)
		type fired struct {
			at  Time
			idx int
		}
		var got []fired
		for i, ti := range times {
			i, at := i, Time(ti)
			e.At(at, func() { got = append(got, fired{at, i}) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].idx < got[i-1].idx {
				return false
			}
		}
		return len(got) == len(times)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// seqEvent names a queued event by its seq, so a test can tell which one
// popped.
type seqEvent uint64

func (seqEvent) RunEvent() {}

// queueCheck drives an eventHeap beside a reference: the pending events,
// kept sorted by (at, seq).
type queueCheck struct {
	t   *testing.T
	h   eventHeap
	ref []event
	seq uint64
}

// add inserts an event at at with the next seq, in the queue and the
// reference.
func (c *queueCheck) add(at Time) {
	c.seq++
	c.h.insert(at, c.seq, seqEvent(c.seq))
	e := event{at: at, seq: c.seq}
	i, _ := slices.BinarySearchFunc(c.ref, e, func(a, b event) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	c.ref = slices.Insert(c.ref, i, e)
}

// pop calls popUntil(limit) and checks it against the reference: the
// reference's first event if it is due by limit, and then the clock at
// its time; nothing otherwise, and then the clock at limit if anything
// is pending.
func (c *queueCheck) pop(limit Time) bool {
	c.t.Helper()
	ev, at, ok := c.h.popUntil(limit)
	if len(c.ref) == 0 || c.ref[0].at > limit {
		if ok {
			c.t.Errorf("popUntil(%d) popped seq %v at %d, want nothing", limit, ev, at)
			return false
		}
		if len(c.ref) > 0 && c.h.now != limit {
			c.t.Errorf("popUntil(%d) found nothing due and left the clock at %d", limit, c.h.now)
			return false
		}
		return true
	}
	want := c.ref[0]
	c.ref = c.ref[1:]
	if !ok || at != want.at || ev != seqEvent(want.seq) {
		c.t.Errorf("popUntil(%d) = (%v, %d, %v), want (seq %d, %d, true)", limit, ev, at, ok, want.seq, want.at)
		return false
	}
	if c.h.now != at {
		c.t.Errorf("popped at %d but the clock reads %d", at, c.h.now)
		return false
	}
	return true
}

// drain pops everything left, checking each pop.
func (c *queueCheck) drain() {
	c.t.Helper()
	for c.h.Len() > 0 && c.pop(Forever) {
	}
}

// Property: the queue pops in exact (at, seq) order under the contract
// Engine keeps: every time inserted is at or after the clock, which only
// the pops and popUntil's stops move. Delays run from 0 to three horizons,
// a third of them land on a few instants (heavy ties), some straddle the
// horizon, and stops move the clock by up to two horizons with events
// pending. Every pop is checked against a reference sorted by (at, seq).
func TestPropertyHeap(t *testing.T) {
	prop := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		c := &queueCheck{t: t}
		count := int(n) % 1500
		for pushed := 0; pushed < count || c.h.Len() > 0; {
			if c.h.Len() != len(c.ref) {
				t.Errorf("Len() = %d, want %d", c.h.Len(), len(c.ref))
				return false
			}
			switch p := rng.Intn(16); {
			case pushed < count && (c.h.Len() == 0 || p < 8):
				var d Time
				switch rng.Intn(6) {
				case 0, 1:
					d = Time(rng.Intn(4)) * 500 // ties at a few instants
				case 2:
					d = horizon - 2 + Time(rng.Intn(4)) // either side of the horizon
				default:
					d = Time(rng.Intn(3 * horizon))
				}
				c.add(c.h.now + d)
				pushed++
			case p < 10:
				// A RunUntil that may stop short of the next event.
				if !c.pop(c.h.now + Time(rng.Intn(2*horizon))) {
					return false
				}
			default:
				if !c.pop(Forever) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A far event and a near event at one instant: the far one was inserted
// while the instant was a horizon or more ahead, so first, and pops first.
func TestHeapFarFirstOnTie(t *testing.T) {
	c := &queueCheck{t: t}
	const tie = horizon + 5
	c.add(10)
	c.add(tie) // far: tie − 0 ≥ horizon
	c.pop(Forever)
	c.add(tie) // near: tie − 10 < horizon
	c.add(tie)
	if len(c.h.far) != 1 || c.h.near != 2 {
		t.Fatalf("far %d, near %d; want the tie split 1, 2", len(c.h.far), c.h.near)
	}
	c.drain()
}

// The ring wraps: with the clock near the top of the ring, slots below
// the clock's hold later times than the slots above it, in every word of
// the bitmap.
func TestHeapRingWrapAround(t *testing.T) {
	c := &queueCheck{t: t}
	for _, start := range []Time{horizon - 3, 3*horizon - 64, 5*horizon + 63} {
		c.add(start)
		c.pop(Forever) // the clock is now start
		for _, d := range []Time{horizon - 1, 2, 0, 1, 3, 64, 65, 130, horizon - 65, horizon - 64, horizon / 2, 2} {
			c.add(start + d)
		}
		c.drain()
	}
}

// The clock jumps more than a horizon while far events are pending: the
// wheel starts over at the new clock, and the far heads still interleave
// with the new near events by time, far first on a tie.
func TestHeapClockJumpsPastHorizon(t *testing.T) {
	c := &queueCheck{t: t}
	const stop = 2*horizon + 7
	c.add(100)
	c.add(horizon - 1)
	c.add(3 * horizon) // far
	c.add(stop + 50)   // far
	for range 3 {      // two pops, then a stop
		c.pop(stop)
	}
	if c.h.now != stop || c.h.near != 0 || len(c.h.far) != 2 {
		t.Fatalf("clock %d, near %d, far %d; want %d, 0, 2", c.h.now, c.h.near, len(c.h.far), stop)
	}
	c.add(c.h.now)               // near
	c.add(c.h.now + 50)          // near, ties the far event at stop+50
	c.add(3 * horizon)           // near, ties the far event at 3·horizon
	c.add(c.h.now + horizon - 1) // near, the last slot of the window
	c.add(c.h.now + horizon)     // far
	c.add(c.h.now + 10)          // near
	c.drain()
}

// RunUntil stops between the two heads, either way round, and events
// scheduled at the stopped clock still run in (time, seq) order.
func TestRunUntilStopsBetweenNearAndFarHeads(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	at := func(t Time) { e.At(t, func() { ran = append(ran, e.Now()) }) }
	at(100)
	at(10_000)                               // far
	if err := e.RunUntil(5000); err != nil { // near head ran, far head waits
		t.Fatal(err)
	}
	if e.Now() != 5000 {
		t.Fatalf("clock %v, want 5000", e.Now())
	}
	at(e.Now() + 3900)                       // near: 8900, before the far head
	at(e.Now() + 5000)                       // far: 10 000, after the far head that ties it
	if err := e.RunUntil(8000); err != nil { // both heads later
		t.Fatal(err)
	}
	if err := e.RunUntil(9500); err != nil { // near head ran, far head waits
		t.Fatal(err)
	}
	at(e.Now() + 4000)                         // near: 13 500
	at(e.Now() + 600)                          // near: 10 100
	if err := e.RunUntil(10_050); err != nil { // far head ran, near heads wait
		t.Fatal(err)
	}
	if e.Now() != 10_050 {
		t.Fatalf("clock %v, want 10050", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{100, 8900, 10_000, 10_000, 10_100, 13_500}; !slices.Equal(ran, want) {
		t.Errorf("events ran at %v, want %v", ran, want)
	}
}

// TestPropertyHeap (above) only checks pop order against the mirror's
// (at, seq) minimum; with distinct random times ties are rare, so a heap
// that reordered equal timestamps could slip through. This regression
// pins tiebreak stability directly: all-equal times must pop in exact
// schedule order.
func TestHeapEqualTimeTiebreakStability(t *testing.T) {
	// Raw heap: N events at one timestamp, pushed interleaved with pops.
	var h eventHeap
	var seq uint64
	var popped []uint64
	for i := 0; i < 200; i++ {
		seq++
		h.push(event{at: 42, seq: seq})
		if i%3 == 2 {
			popped = append(popped, h.pop().seq)
		}
	}
	for h.Len() > 0 {
		popped = append(popped, h.pop().seq)
	}
	for i := 1; i < len(popped); i++ {
		if popped[i] <= popped[i-1] {
			t.Fatalf("equal-time pops out of schedule order: seq %d after %d",
				popped[i], popped[i-1])
		}
	}
}

// RunUntil with a limit behind the clock must not move it: an event
// already ran at 10, so nothing may run before 10 afterwards.
func TestRunUntilNeverMovesClockBackwards(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	e.At(10, func() { ran = append(ran, e.Now()) })
	e.At(20, func() { ran = append(ran, e.Now()) })
	if err := e.RunUntil(15); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 15 {
		t.Fatalf("after RunUntil(5) at 15: Now() = %v, want 15", e.Now())
	}
	e.At(e.Now(), func() { ran = append(ran, e.Now()) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{10, 15, 20}; !slices.Equal(ran, want) {
		t.Errorf("events ran at %v, want %v", ran, want)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%64), func() {})
		if e.q.Len() > 1024 {
			_ = e.RunUntil(e.Now() + 32)
		}
	}
	_ = e.Run()
}

// requeue is an event that schedules itself again, left more times, each
// time after the next delay of a cyclic table.
type requeue struct {
	e      *Engine
	delays []Time
	i      int
	left   int
}

func (r *requeue) RunEvent() {
	if r.left > 0 {
		r.left--
		r.i++
		r.e.AtEvent(r.e.Now()+r.delays[r.i%len(r.delays)], r)
	}
}

// queueDelays is the delay mix the benchmark workloads schedule with
// (EXPERIMENTS "ISSUE 38"): 70 % at the fabric's few fixed delays (wire
// legs, acks, handler service, proc wake-ups at now + 0), 20 % spread
// uniformly over 0–2 µs, and 10 % at a 32 µs lifeline poll.
func queueDelays(n int) []Time {
	fixed := []Time{1500, 1524, 0, 300, 50, 1508, 1516}
	rng := rand.New(rand.NewSource(1))
	d := make([]Time, n)
	for i := range d {
		switch p := rng.Intn(10); {
		case p < 7:
			d[i] = fixed[rng.Intn(len(fixed))]
		case p < 9:
			d[i] = Time(rng.Intn(2001))
		default:
			d[i] = 32 * Microsecond
		}
	}
	return d
}

// BenchmarkEventQueue keeps a fixed number of events pending and times
// one pop, dispatch and push at a time, with the workloads' delay mix:
// the queue's cost at a small machine's and a large one's depth.
// BenchmarkScheduleAndRun's i%64 delays hide the difference between
// queue designs; this one does not.
func BenchmarkEventQueue(b *testing.B) {
	for _, pending := range []int{32, 2048, 16384} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			e := NewEngine(1)
			delays := queueDelays(4096)
			evs := make([]requeue, pending)
			for i := range evs {
				evs[i] = requeue{e: e, delays: delays, i: i * 7, left: 1 << 30}
				e.AtEvent(delays[i%len(delays)], &evs[i])
			}
			// Warm up past two 32 µs rounds, so the far part holds its
			// steady share and every array has reached its size.
			if err := e.RunUntil(64 * Microsecond); err != nil {
				b.Fatal(err)
			}
			for i := range evs {
				evs[i].left = b.N / pending
				if i < b.N%pending {
					evs[i].left++
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkProcContextSwitch(b *testing.B) {
	e := NewEngine(1)
	n := b.N
	e.Go("switcher", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
