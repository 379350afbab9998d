package sim

import (
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

// Property: the heap pops in sorted order for random sequences interleaved
// with pops (exercises siftDown paths directly).
func TestPropertyHeap(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var mirror []event // reference multiset
		var seq uint64
		count := int(n)
		pushed := 0
		for pushed < count || h.Len() > 0 {
			if pushed < count && (h.Len() == 0 || rng.Intn(2) == 0) {
				seq++
				ev := event{at: Time(rng.Intn(50)), seq: seq}
				h.push(ev)
				mirror = append(mirror, ev)
				pushed++
			} else {
				ev := h.pop()
				// ev must be the (at, seq)-minimum of the mirror.
				minIdx := 0
				for i, m := range mirror {
					if m.at < mirror[minIdx].at ||
						(m.at == mirror[minIdx].at && m.seq < mirror[minIdx].seq) {
						minIdx = i
					}
				}
				if ev.at != mirror[minIdx].at || ev.seq != mirror[minIdx].seq {
					return false
				}
				mirror = append(mirror[:minIdx], mirror[minIdx+1:]...)
			}
		}
		return len(mirror) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
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
