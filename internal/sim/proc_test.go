package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutineBase returns the goroutine count once it has stopped moving:
// goroutines that earlier tests ended (the caller of a Run that was
// unwound) count until the scheduler has retired them.
func goroutineBase() int {
	n := runtime.NumGoroutine()
	for stable := 0; stable < 5; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, stable = m, 0
		} else {
			stable++
		}
	}
	return n
}

// wantGoroutines fails unless the goroutine count comes back to base.
// Every coroutine is gone when the stop that ended it returns; the grace
// period is for goroutines the test itself started, which count until the
// scheduler has retired them.
func wantGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("%d goroutines, want %d: a coroutine outlived its engine", n, base)
	}
}

func TestShutdownEndsEveryGoroutine(t *testing.T) {
	cases := []struct {
		name  string
		setup func(e *Engine)
		idle  int // coroutines on the free list before Shutdown
		live  int // unfinished procs before Shutdown
		coros int // goroutines the engine holds before Shutdown
	}{
		{"body returned", func(e *Engine) {
			e.Go("short", func(*Proc) {})
			e.At(100, func() {}) // keeps the queue from draining
		}, 1, 0, 1},
		{"parked forever", func(e *Engine) {
			e.Go("stuck", func(p *Proc) { p.Park("never woken") })
			e.At(100, func() {})
		}, 0, 1, 1},
		{"sleeping", func(e *Engine) {
			e.Go("sleeper", func(p *Proc) { p.Sleep(100) })
		}, 0, 1, 1},
		{"pacing", func(e *Engine) {
			e.Go("pacer", func(p *Proc) { p.WaitWith(&pacer{p: p, d: 100}) })
		}, 0, 1, 1},
		{"never started", func(e *Engine) {
			e.GoAt(100, "late", func(*Proc) { t.Error("an aborted proc's body ran") })
		}, 0, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := goroutineBase()
			e := NewEngine(1)
			tc.setup(e)
			if err := e.RunUntil(50); err != nil {
				t.Fatal(err)
			}
			if len(e.idle) != tc.idle || e.LiveProcs() != tc.live {
				t.Fatalf("before Shutdown: %d idle, %d live, want %d, %d", len(e.idle), e.LiveProcs(), tc.idle, tc.live)
			}
			if got, want := runtime.NumGoroutine(), base+tc.coros; got != want {
				t.Errorf("%d goroutines before Shutdown, want %d", got, want)
			}
			e.Shutdown()
			if len(e.idle) != 0 || e.LiveProcs() != 0 {
				t.Errorf("after Shutdown: %d idle, %d live", len(e.idle), e.LiveProcs())
			}
			wantGoroutines(t, base)
			// The events left in the queue find their procs done.
			if err := e.Run(); err != nil {
				t.Errorf("Run after Shutdown: %v", err)
			}
			wantGoroutines(t, base)
		})
	}
}

func TestCleanRunEndsEveryGoroutine(t *testing.T) {
	base := goroutineBase()
	e := NewEngine(1)
	var waiters []*Proc
	for i := 0; i < 8; i++ {
		e.Go("waiter", func(p *Proc) {
			waiters = append(waiters, p)
			p.Park("wait")
		})
	}
	e.Go("waker", func(p *Proc) {
		p.Sleep(10)
		for _, w := range waiters {
			w.Unpark()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	wantGoroutines(t, base)
}

// A body that returns hands its goroutine to the next proc to start, so a
// chain of procs, each started from inside the body of the one before,
// never holds more than one.
func TestSequentialProcsShareOneGoroutine(t *testing.T) {
	const n = 10000
	base := goroutineBase()
	e := NewEngine(1)
	peak, ran := 0, 0
	var body func(p *Proc)
	body = func(p *Proc) {
		if p.ID() != ran {
			t.Errorf("proc %d ran as number %d", p.ID(), ran)
		}
		ran++
		p.Sleep(1)
		if g := runtime.NumGoroutine(); g > peak {
			peak = g
		}
		if ran < n {
			e.Go("link", body)
		}
	}
	e.Go("link", body)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != n {
		t.Errorf("%d procs ran, want %d", ran, n)
	}
	if peak != base+1 {
		t.Errorf("peak of %d goroutines over %d sequential procs, want %d", peak, n, base+1)
	}
	if c := cap(e.procs.procs); c > 64 {
		t.Errorf("the engine's proc list has room for %d procs with one alive at a time", c)
	}
	wantGoroutines(t, base)
}

func TestManyConcurrentProcs(t *testing.T) {
	const n = 10000
	base := goroutineBase()
	e := NewEngine(1)
	var waiters []*Proc
	parked, woke := 0, 0
	for i := 0; i < n; i++ {
		e.Go("waiter", func(p *Proc) {
			parked++
			waiters = append(waiters, p)
			p.Park("wait")
			woke++
		})
	}
	e.Go("waker", func(p *Proc) {
		p.Sleep(1)
		if parked != n {
			t.Errorf("%d procs parked, want %d", parked, n)
		}
		if g := runtime.NumGoroutine(); g != base+n+1 {
			t.Errorf("%d goroutines with %d procs parked, want %d", g, n, base+n+1)
		}
		for _, w := range waiters {
			w.Unpark()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != n {
		t.Errorf("%d procs woke, want %d", woke, n)
	}
	wantGoroutines(t, base)
}

func TestPanickedBodyThenShutdown(t *testing.T) {
	base := goroutineBase()
	e := NewEngine(1)
	e.Go("bystander", func(p *Proc) { p.Park("never woken") })
	e.Go("bad", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	err := e.Run()
	if want := `sim: proc "bad" panicked: boom`; err == nil || err.Error() != want {
		t.Fatalf("Run = %v, want %q", err, want)
	}
	// The goroutine that panicked is unharmed and waits for a new tenant.
	if len(e.idle) != 1 || e.LiveProcs() != 1 {
		t.Errorf("after the panic: %d idle, %d live, want 1, 1", len(e.idle), e.LiveProcs())
	}
	e.Shutdown()
	wantGoroutines(t, base)
}

// runtime.Goexit in a body (t.FailNow, t.Fatal) ends the goroutine that
// called Run, after the body's and Run's deferred calls, instead of
// leaving Run waiting for a proc that will never yield.
func TestGoexitInBodyUnwindsRun(t *testing.T) {
	base := goroutineBase()
	e := NewEngine(1)
	e.Go("bystander", func(p *Proc) { p.Park("never woken") })
	deferred := false
	e.Go("quitter", func(p *Proc) {
		defer func() { deferred = true }()
		p.Sleep(5)
		runtime.Goexit()
	})
	unwound := make(chan struct{})
	go func() {
		defer close(unwound)
		err := e.Run()
		t.Errorf("Run returned %v after runtime.Goexit in a body", err)
	}()
	select {
	case <-unwound:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hangs after runtime.Goexit in a body")
	}
	if !deferred {
		t.Error("the body's deferred call did not run")
	}
	if e.LiveProcs() != 1 {
		t.Errorf("LiveProcs = %d, want 1 (the bystander)", e.LiveProcs())
	}
	e.Shutdown()
	wantGoroutines(t, base)
}

// An Unpark event that is still queued when its proc finishes must find
// procDone, not wake whichever proc has been let the coroutine since. The
// state machine never leaves such an event behind on its own (a parked
// proc resumes only through it), so the test queues a second event
// naming the proc by hand.
func TestStaleWakeFindsDoneProc(t *testing.T) {
	staleWakeFindsDone(t, func(e *Engine, name string, fn func(*Proc)) *Proc { return e.Go(name, fn) })
}

// The same for procs that live in their owners' records, started by
// GoBody: the stale wake-up names the first record's Proc, which stays
// done however long the record is kept.
func TestStaleWakeFindsDoneHeldProc(t *testing.T) {
	staleWakeFindsDone(t, func(e *Engine, name string, fn func(*Proc)) *Proc {
		h := &heldProc{fn: fn}
		e.GoBody(&h.p, ProcName{Base: name}, h)
		return &h.p
	})
}

// heldProc is a record that keeps its own Proc and is its proc's body.
type heldProc struct {
	p  Proc
	fn func(*Proc)
}

func (h *heldProc) Run(p *Proc) {
	if h.fn != nil {
		h.fn(p)
	}
}

func staleWakeFindsDone(t *testing.T, start func(e *Engine, name string, fn func(*Proc)) *Proc) {
	e := NewEngine(1)
	a := start(e, "a", func(p *Proc) { p.Park("first tenant") })
	e.After(1, a.Unpark)
	e.At(20, func() {}) // keeps the queue, and so the idle coroutine, alive
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if a.State() != "done" || len(e.idle) != 1 {
		t.Fatalf("a is %s, %d idle", a.State(), len(e.idle))
	}
	co := e.idle[0]
	resumed := false
	b := start(e, "b", func(p *Proc) {
		p.Park("second tenant")
		resumed = true
	})
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if b.co != co {
		t.Fatal("b did not take over a's coroutine")
	}
	e.atProc(e.Now(), a)
	var dl *DeadlockError
	if err := e.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want a deadlock with b still parked", err)
	}
	if resumed || b.permit || b.State() != "parked" {
		t.Errorf("a's stale wake reached b: resumed %v, permit %v, state %s", resumed, b.permit, b.State())
	}
	e.Shutdown()
}

// procHeavyLog runs procs that sleep random times, park on and wake one
// another through four waiter queues and start children, and returns the
// order in which everything happened.
func procHeavyLog(seed int64) []string {
	e := NewEngine(seed)
	var log []string
	var queues [4][]*Proc
	var body func(depth int) func(p *Proc)
	body = func(depth int) func(p *Proc) {
		return func(p *Proc) {
			for step := 0; step < 4; step++ {
				log = append(log, fmt.Sprintf("%d %s[%d] step %d", p.Now(), p.Name(), p.ID(), step))
				switch e.Rand().Intn(4) {
				case 0:
					p.Sleep(Time(e.Rand().Intn(20)))
				case 1:
					q := &queues[e.Rand().Intn(len(queues))]
					e.After(Time(1+e.Rand().Intn(30)), func() {
						for _, w := range *q {
							w.Unpark()
						}
						*q = nil
					})
					*q = append(*q, p)
					p.Park("queue wait")
				case 2:
					if q := &queues[e.Rand().Intn(len(queues))]; len(*q) > 0 {
						(*q)[0].Unpark()
						*q = (*q)[1:]
					}
					p.Sleep(0)
				case 3:
					if depth < 3 {
						e.Go(fmt.Sprintf("%s.%d", p.Name(), step), body(depth+1))
					}
				}
			}
		}
	}
	for i := 0; i < 32; i++ {
		e.Go(fmt.Sprintf("p%d", i), body(0))
	}
	err := e.Run()
	log = append(log, fmt.Sprintf("end %d %d %v", e.Now(), e.EventsRun(), err))
	e.Shutdown()
	return log
}

func TestProcScheduleIgnoresGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got := procHeavyLog(42)
		if want == nil {
			want = got
			if len(want) < 500 {
				t.Fatalf("the scenario logged only %d steps", len(want))
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS %d: the event order differs from GOMAXPROCS 1", procs)
		}
	}
}

// Finished procs drop out of the engine's list, yet ids keep counting,
// WakeAllParked keeps creation order and the deadlock dump is unchanged.
func TestFinishedProcsAreForgotten(t *testing.T) {
	e := NewEngine(1)
	var order []int
	var parked []*Proc
	const n = 5000
	e.At(1, func() {}) // RunUntil(0) below must not find the queue drained: that is a deadlock
	for i := 0; i < n; i++ {
		if i%500 == 7 {
			parked = append(parked, e.Go("parker", func(p *Proc) {
				p.Park("until woken")
				order = append(order, p.ID())
			}))
		} else {
			e.Go("short", func(*Proc) {})
		}
		if i%50 == 49 {
			if err := e.RunUntil(e.Now()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c := cap(e.procs.procs); c > 256 {
		t.Errorf("the proc list has room for %d procs with %d unfinished", c, len(parked))
	}
	if got := e.procs.Live(); !reflect.DeepEqual(got, parked) {
		t.Errorf("Live() = %d procs, want the %d parked ones in creation order", len(got), len(parked))
	}
	if p := e.Go("next", func(*Proc) {}); p.ID() != n {
		t.Errorf("proc %d has id %d, want %d", n+1, p.ID(), n)
	}
	var dl *DeadlockError
	if err := e.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want a deadlock", err)
	}
	if len(dl.Parked) != len(parked) || dl.Parked[0] != "parker[1007] parked (until woken)" {
		t.Errorf("deadlock dump = %q", dl.Parked)
	}
	e.WakeAllParked()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var want []int
	for _, p := range parked {
		want = append(want, p.ID())
	}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("WakeAllParked resumed %v, want creation order %v", order, want)
	}
}

func TestProcNameJoinsPartsOnDemand(t *testing.T) {
	e := NewEngine(1)
	p := new(Proc)
	e.GoBody(p, ProcName{Scope: "img3", Base: "spawn", Seq: 12}, BodyFunc(func(p *Proc) { p.Park("x") }))
	if got, want := p.Name(), "img3/spawn#12"; got != want {
		t.Errorf("Name() = %q, want %q", got, want)
	}
	err := e.Run()
	if want := "img3/spawn#12[0] parked (x)"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Run = %v, want it to name %q", err, want)
	}
	e.Shutdown()
}

// A warm proc switches without allocating: its wake-up events name the
// proc and the event heap's array has reached its size.
func TestSwitchDoesNotAllocate(t *testing.T) {
	e := NewEngine(1)
	var sleep, park float64
	e.Go("warm", func(p *Proc) {
		wake := p.Unpark
		parkUnpark := func() {
			e.After(1, wake)
			p.Park("alloc test")
		}
		p.Sleep(1)
		parkUnpark()
		sleep = testing.AllocsPerRun(1000, func() { p.Sleep(1) })
		park = testing.AllocsPerRun(1000, parkUnpark)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sleep != 0 || park != 0 {
		t.Errorf("allocations per Sleep = %v, per Park/Unpark = %v, want 0, 0", sleep, park)
	}
}

// Go allocates the Proc and nothing else — its start event names it, and
// its body is taken as it is — and a fresh proc's first Sleep allocates
// nothing. The children run on the driver's idle coroutine, so no
// goroutine is made either.
func TestPoolProcStartAllocatesOnlyTheProc(t *testing.T) {
	if GoRace || QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
	e := NewEngine(1)
	var start, startAndSleep float64
	e.Go("driver", func(p *Proc) {
		noop := func(*Proc) {}
		sleeper := func(c *Proc) { c.Sleep(1) }
		child := func(body func(*Proc)) func() {
			return func() {
				e.Go("child", body)
				p.Sleep(2) // the child starts and returns meanwhile
			}
		}
		child(sleeper)()
		start = testing.AllocsPerRun(1000, child(noop))
		startAndSleep = testing.AllocsPerRun(1000, child(sleeper))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if start != 1 || startAndSleep != 1 {
		t.Errorf("allocations per proc start = %v, per start and first Sleep = %v, want 1, 1", start, startAndSleep)
	}
}

// A proc whose Proc is a field of the caller's record starts without
// allocating anything: GoBody starts the Proc in place, and the record is
// the body.
func TestPoolGoBodyAllocatesNothing(t *testing.T) {
	if GoRace || QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
	const runs = 1000
	e := NewEngine(1)
	held := make([]heldProc, runs+2) // one warm start, and AllocsPerRun's own
	var allocs float64
	e.Go("driver", func(p *Proc) {
		next := 0
		start := func() {
			h := &held[next]
			next++
			e.GoBody(&h.p, ProcName{Base: "held"}, h)
			p.Sleep(2) // the held proc starts and returns meanwhile
		}
		start()
		allocs = testing.AllocsPerRun(runs, start)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range held {
		if st := held[i].p.State(); st != "done" {
			t.Fatalf("held proc %d is %s, want done", i, st)
		}
	}
	if allocs != 0 {
		t.Errorf("allocations per GoBody on a held Proc = %v, want 0", allocs)
	}
}

func BenchmarkProcSpawn(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Go("p", func(*Proc) {})
		if i%256 == 255 {
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkParkUnpark(b *testing.B) {
	e := NewEngine(1)
	n := b.N
	e.Go("parker", func(p *Proc) {
		wake := p.Unpark
		for i := 0; i < n; i++ {
			e.After(1, wake)
			p.Park("bench")
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// countdown waits until it has been woken left times, logging the time of
// each wake and the reason it reports while it waits.
type countdown struct {
	p     *Proc
	left  int
	wakes []Time
}

func (c *countdown) Wake() (string, bool) {
	c.wakes = append(c.wakes, c.p.Now())
	c.left--
	return fmt.Sprintf("countdown %d", c.left), c.left > 0
}

// WaitWith runs the waker in the events that would have resumed the proc
// and resumes it once: two unparks in one event are one wake-up, each
// wake-up is one event as a Park/Unpark pair's is, the block reason is
// the waker's last, and a stored permit makes the proc test again at once.
func TestWaitWithWakesInEventsAndResumesOnce(t *testing.T) {
	e := NewEngine(1)
	var c *countdown
	var resumed []Time
	p := e.Go("waiter", func(p *Proc) {
		c = &countdown{p: p, left: 5}
		p.Unpark() // a permit: the second Wake runs on p at once
		p.WaitWith(c)
		resumed = append(resumed, p.Now())
	})
	e.At(10, func() { p.Unpark(); p.Unpark() })
	e.At(20, func() {
		if got, want := p.BlockReason(), "countdown 2"; got != want {
			t.Errorf("block reason %q, want %q", got, want)
		}
		p.Unpark()
	})
	var before, after uint64
	e.At(25, func() { before = e.EventsRun() })
	e.At(30, p.Unpark)
	e.At(35, func() { after = e.EventsRun() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{0, 0, 10, 20, 30}; !reflect.DeepEqual(c.wakes, want) {
		t.Errorf("Wake ran at %v, want %v", c.wakes, want)
	}
	if want := []Time{30}; !reflect.DeepEqual(resumed, want) {
		t.Errorf("the proc resumed at %v, want %v", resumed, want)
	}
	if got := after - before; got != 3 {
		t.Errorf("%d events from 25 to 35, want 3: the unpark, the wake-up and the probe", got)
	}
}

type wakeFunc func() (string, bool)

func (f wakeFunc) Wake() (string, bool) { return f() }

// An Unpark from inside Wake, run in a wake-up's event, is a permit, as it
// is for a proc resumed to re-test: Wake runs again at once, in the same
// event, not in another one.
func TestWaitWithUnparkFromWakeIsAPermit(t *testing.T) {
	e := NewEngine(1)
	var p *Proc
	var wakes []Time
	p = e.Go("waiter", func(p *Proc) {
		p.WaitWith(wakeFunc(func() (string, bool) {
			wakes = append(wakes, p.Now())
			if len(wakes) == 2 {
				p.Unpark()
			}
			return "waiting", len(wakes) < 3
		}))
	})
	e.At(10, p.Unpark)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{0, 10, 10}; !reflect.DeepEqual(wakes, want) {
		t.Errorf("Wake ran at %v, want %v", wakes, want)
	}
	if got := e.EventsRun(); got != 3 {
		t.Errorf("%d events, want 3: the start, the unpark and its wake-up", got)
	}
}

// pacer waits out one delay of d, which its call number at (0 for the
// first, on the proc) queues with WakeAfter, after storing a permit if
// permit is set; the calls before at wait, the ones after let the proc go
// on. It logs when Wake ran.
type pacer struct {
	p      *Proc
	d      Time
	at     int
	permit bool
	wakes  []Time
}

func (w *pacer) Wake() (string, bool) {
	n := len(w.wakes)
	w.wakes = append(w.wakes, w.p.Now())
	switch {
	case n < w.at:
		return "before the pace", true
	case n == w.at:
		if w.permit {
			w.p.Unpark()
		}
		w.p.WakeAfter(w.d)
		return "pace", true
	}
	return "", false
}

// A pace costs one event and one resume, as the Sleep it stands for does.
func TestWakeAfterIsOneEvent(t *testing.T) {
	for _, pace := range []bool{false, true} {
		e := NewEngine(1)
		var resumed Time
		e.Go("waiter", func(p *Proc) {
			if pace {
				p.WaitWith(&pacer{p: p, d: 100})
			} else {
				p.Sleep(100)
			}
			resumed = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if resumed != 100 || e.EventsRun() != 2 || e.Resumes() != 2 {
			t.Errorf("pace=%v: resumed at %v after %d events and %d resumes, want 100, 2 and 2",
				pace, resumed, e.EventsRun(), e.Resumes())
		}
	}
}

// Nothing but its own wake-up ends a pace: an Unpark and a WakeAllParked
// during it schedule nothing, and a permit stored as it begins does not
// make Wake run again. This holds for a pace queued on the proc (the
// first Wake) and for one queued in a wake-up's event.
func TestWakeAfterIgnoresUnparks(t *testing.T) {
	for at, want := range [][]Time{{0, 100}, {0, 10, 110}} {
		e := NewEngine(1)
		w := &pacer{d: 100, at: at, permit: true}
		var resumed Time
		p := e.Go("waiter", func(p *Proc) {
			w.p = p
			p.WaitWith(w)
			resumed = p.Now()
		})
		if at == 1 {
			e.At(10, p.Unpark)
		}
		e.At(20, p.Unpark)
		e.At(30, e.WakeAllParked)
		e.At(40, func() {
			if got := p.BlockReason(); got != "pace" {
				t.Errorf("at=%d: block reason %q while pacing, want %q", at, got, "pace")
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(w.wakes, want) || resumed != want[len(want)-1] {
			t.Errorf("at=%d: Wake ran at %v and the proc resumed at %v, want %v", at, w.wakes, resumed, want)
		}
		// The start, the callbacks and the pace; at=1 adds the wake-up at 10.
		if got, want := e.EventsRun(), uint64(5+2*at); got != want {
			t.Errorf("at=%d: %d events, want %d", at, got, want)
		}
		if e.Resumes() != 2 {
			t.Errorf("at=%d: %d resumes, want 2: the start and the end of the pace", at, e.Resumes())
		}
	}
}
