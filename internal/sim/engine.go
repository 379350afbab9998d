package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
)

// Engine is a deterministic discrete-event simulator.
//
// Exactly one strand of execution — either an event callback or a simulated
// process (Proc) — runs at any moment. Proc bodies run on coroutines: the
// goroutine driving Run and a proc's goroutine switch directly into one
// another (the runtime's coroutine hand-off behind iter.Pull), without a
// trip through the Go scheduler, and a coroutine whose body has returned
// idles on a free list until the next proc's start event takes it over.
// Events wait in one queue that pops them in (time, seq) order, where seq
// is the order in which they were scheduled: a wheel of one FIFO per
// nanosecond for the next few microseconds, a heap beyond (heap.go). All
// randomness flows from the engine's seeded generators, so runs are
// bit-for-bit reproducible at any GOMAXPROCS.
type Engine struct {
	now Time
	seq uint64
	q   eventHeap

	current    *Proc    // the proc being resumed; a fresh lease's tenant
	procs      ProcList // unfinished procs, in creation order
	nextProcID int
	live       int
	idle       []*coro // coroutines whose body has returned; LIFO

	rng       *rand.Rand
	seed      int64
	eventsRun uint64
	resumes   uint64 // switches to a proc's stack (resumeProc)
	stopped   bool
	procErr   error // first panic captured from a proc

	onStrand atomic.Bool // RunUntil is running events (or a proc one resumed)

	expiries FreeList[expiry] // the records of queued Timer expiries
}

// NewEngine returns an engine whose randomness derives from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// EventsRun reports how many events have executed so far.
func (e *Engine) EventsRun() uint64 { return e.eventsRun }

// Resumes reports how many times a proc's stack was switched to: at its
// start, a Sleep's end, or a wake-up that let it go on.
func (e *Engine) Resumes() uint64 { return e.resumes }

// Rand returns the engine's deterministic random generator. It must only
// be used from within the simulation (events or procs), never concurrently.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// DeriveRand returns an independent generator seeded deterministically from
// the engine seed and id, for per-image random streams.
func (e *Engine) DeriveRand(id int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*0x9E3779B1 + id*0x85EBCA77 + 0x165667B1))
}

// At schedules fn to run at absolute virtual time t (clamped to now).
func (e *Engine) At(t Time, fn func()) { e.schedule(t, funcEvent(fn)) }

// AtEvent schedules ev to run at absolute virtual time t (clamped to now).
// It is At for a record that is its own event.
func (e *Engine) AtEvent(t Time, ev Event) { e.schedule(t, ev) }

// atProc schedules p's next event — its start or a wake-up — at time t.
// It is At in every respect the schedule can see.
func (e *Engine) atProc(t Time, p *Proc) { e.schedule(t, (*procEvent)(p)) }

// schedule is the one place seq is taken: ties in time run in the order
// they were scheduled. The clamp to now is the queue's contract: nothing
// is inserted before its clock, which is the engine's.
func (e *Engine) schedule(t Time, ev Event) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.q.insert(t, e.seq, ev)
}

// After schedules fn to run d from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Stop makes Run return after the current event completes. Pending events
// remain queued; Run may be called again to resume.
func (e *Engine) Stop() { e.stopped = true }

// AssertStrand panics if called off the simulation's single execution
// strand: inside an event callback, or inside a proc the engine has
// resumed. State shared across images (trace buffers, metric registries,
// op lifecycles) may only be touched on the strand, so choke points that
// stamp it (e.g. op stage advancement) call this: a stray goroutine
// touching the runtime fails loudly instead of silently racing the
// admission loop.
func (e *Engine) AssertStrand(what string) {
	if !e.onStrand.Load() {
		panic(fmt.Sprintf("sim: %s called off the simulation strand", what))
	}
}

// DeadlockError is returned by Run when no events remain but live
// processes are still blocked.
type DeadlockError struct {
	Now    Time
	Parked []string // descriptions of the blocked processes
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d blocked proc(s): %s",
		d.Now, len(d.Parked), strings.Join(d.Parked, ", "))
}

// Run executes events until the queue drains, Stop is called, or a process
// panics. If the queue drains while processes remain blocked, Run returns
// a *DeadlockError describing them.
func (e *Engine) Run() error { return e.RunUntil(Forever) }

// RunUntil executes events with timestamps ≤ limit. On return the clock
// reads limit if an event later than limit is pending, and the time of the
// last event otherwise. A limit earlier than Now returns at once with the
// clock and the queue untouched: virtual time never goes backwards.
//
// The caller is on the strand for the whole run, between events too, and
// leaves it however the run ends: the flag is restored on return and on a
// panic out of an event callback alike.
func (e *Engine) RunUntil(limit Time) error {
	if limit < e.now {
		return nil
	}
	prev := e.onStrand.Swap(true)
	defer e.onStrand.Store(prev)
	e.stopped = false
	for !e.stopped {
		ev, at, ok := e.q.popUntil(limit)
		if !ok {
			if e.q.Len() > 0 {
				e.now = limit // the next event is later
				return nil
			}
			break
		}
		e.now = at
		e.eventsRun++
		ev.RunEvent()
		if e.procErr != nil {
			return e.procErr
		}
	}
	if e.stopped {
		return nil
	}
	// The queue drained: no start event is left to take an idle
	// coroutine, and a caller may never come back, so their goroutines
	// end here.
	e.releaseIdle()
	if e.live > 0 {
		var parked []string
		for _, p := range e.procs.Live() {
			parked = append(parked, p.describe())
		}
		sort.Strings(parked)
		return &DeadlockError{Now: e.now, Parked: parked}
	}
	return nil
}

// WakeAllParked unparks every currently parked process, in creation
// order, after a state change that satisfies every blocked wait: a
// failure declaration, which each wait condition ORs into what it waits
// for, so that each parked proc resumes once, to abort or to go on. Every
// wait re-tests its condition in WaitWith, so a wake-up whose condition
// does not hold would cost its event and no resume.
func (e *Engine) WakeAllParked() {
	for _, p := range e.procs.procs {
		if p.state == procParked {
			p.Unpark()
		}
	}
}

// Idle reports whether no events are pending and no processes are live.
func (e *Engine) Idle() bool { return e.q.Len() == 0 && e.live == 0 }

// LiveProcs reports the number of processes that have not finished.
func (e *Engine) LiveProcs() int { return e.live }

// Shutdown aborts all live processes, in creation order, unwinding each
// started body (its deferred calls run) and ending its goroutine, then
// ends the idle coroutines: no goroutine the engine started outlives it.
// It must be called from outside the simulation (after Run returns),
// typically via defer in tests that abandon a simulation mid-flight.
func (e *Engine) Shutdown() {
	for _, p := range e.procs.Live() {
		if p.co == nil {
			// Never started: there is no body to unwind, and the queued
			// start event will find the proc done.
			p.state, p.body = procDone, nil
			e.live--
			continue
		}
		e.current = p
		p.co.stop()
		e.current = nil
	}
	e.releaseIdle()
}

// resumeProc transfers control to p until it yields back.
func (e *Engine) resumeProc(p *Proc) {
	prev := e.current
	e.current = p
	e.resumes++
	p.co.next()
	e.current = prev
}
