package sim

import (
	"fmt"
	"slices"
	"strconv"
)

type procState uint8

const (
	procNew procState = iota
	procRunning
	procParked
	procDone
)

func (s procState) String() string {
	switch s {
	case procNew:
		return "new"
	case procRunning:
		return "running"
	case procParked:
		return "parked"
	case procDone:
		return "done"
	}
	return "?"
}

// procAbort is the panic payload that unwinds a proc's body when its
// coroutine is stopped (Engine.Shutdown).
type procAbort struct{}

// ProcName is a proc's name in parts. They are joined only when somebody
// asks (Name, the deadlock dumps), so starting a proc formats nothing.
type ProcName struct {
	Scope string // the owner's name, e.g. "img3"; "" for a bare name
	Base  string
	Seq   int // the proc's number within Scope
}

// String returns Base, or Scope/Base#Seq when a scope is set.
func (n ProcName) String() string {
	if n.Scope == "" {
		return n.Base
	}
	return n.Scope + "/" + n.Base + "#" + strconv.Itoa(n.Seq)
}

// Proc is a simulated process: a body that runs only when the engine
// hands it control, and that advances virtual time via Sleep/Park rather
// than real blocking. The body runs on a coroutine the engine leases to
// it at its start event and takes back when the body returns; which
// goroutine that is cannot be observed, only which event resumes which
// proc. All Proc methods must be called from the proc's own body, except
// Unpark, which is called by whoever wakes it.
type Proc struct {
	eng  *Engine
	id   int
	name ProcName

	co    *coro // leased from the start event until the body returns
	body  Body  // what the proc runs; dropped when it returns
	state procState

	wakePending bool // an unpark event is already queued
	permit      bool // a stored unpark for a proc not currently parked
	blockReason string
}

// Body is what a proc runs. A caller that already holds a record for the
// work hands the record itself to GoBody instead of a closure over it,
// with the Proc a field of the same record.
type Body interface {
	Run(p *Proc)
}

// BodyFunc makes a plain function a Body. A func value fits an interface
// word, so the conversion allocates nothing.
type BodyFunc func(p *Proc)

// Run calls f.
func (f BodyFunc) Run(p *Proc) { f(p) }

// Go creates a process named name and schedules it to start immediately.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.GoAt(e.now, name, fn)
}

// GoAt creates a process that starts at virtual time t. It is for callers
// that hold no record to keep the Proc in, so it allocates one.
func (e *Engine) GoAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := new(Proc)
	e.start(p, t, ProcName{Base: name}, BodyFunc(fn))
	return p
}

// GoBody starts p, a zero Proc the caller keeps in its own record, as a
// process named name that runs body now. body may be that record rather
// than a function, so starting the proc allocates nothing. A queued
// wake-up names its Proc, so p must not be started again: the record
// that holds it lives as long as anything names it.
func (e *Engine) GoBody(p *Proc, name ProcName, body Body) {
	e.start(p, e.now, name, body)
}

func (e *Engine) start(p *Proc, t Time, name ProcName, body Body) {
	if p.eng != nil {
		panic("sim: proc " + p.name.String() + " started twice")
	}
	p.eng, p.id, p.name, p.body = e, e.nextProcID, name, body
	e.nextProcID++
	e.procs.Add(p)
	e.live++
	e.atProc(t, p)
}

// procEvent is a Proc as the Event of its own start and wake-ups: the
// conversion names the proc and allocates nothing.
type procEvent Proc

// RunEvent runs the proc's queued event.
func (pe *procEvent) RunEvent() { (*Proc)(pe).runEvent() }

// runEvent is what a queued proc event does when it fires. A proc has at
// most one event queued at a time and does not run while it is: a new
// proc waits for its start, and a parked proc (a sleeper among them) for
// the one wake-up wakePending admits, an Unpark's or a WakeAfter's. So
// the state says which of the two this is. An event that finds procDone
// is stale (the proc was aborted by Shutdown, or never started) and is
// dropped; it names the Proc, not its coroutine, so it can never reach
// the coroutine's next tenant.
func (p *Proc) runEvent() {
	switch p.state {
	case procNew:
		p.co = p.eng.lease()
	case procParked:
		p.wakePending = false
		if w := p.co.waker; w != nil {
			// Running, as p would be to re-test: an Unpark from Wake is a
			// permit, not another wake-up.
			p.state = procRunning
			if reason, wait := p.retest(w); wait {
				p.state, p.blockReason = procParked, reason
				return
			}
		}
	default:
		return
	}
	p.state = procRunning
	p.eng.resumeProc(p)
}

// ProcList keeps procs in the order they were added and forgets the
// finished ones as it goes, so its size follows the number of unfinished
// procs rather than the number ever started.
type ProcList struct {
	procs []*Proc
}

// ProcListOn returns an empty list that fills buf's capacity before it
// allocates: the owner of many small lists hands each a window of one
// slab.
func ProcListOn(buf []*Proc) ProcList { return ProcList{procs: buf[:0]} }

// Add appends p. When the backing array is full, finished procs are
// first compacted out in place, and the array grows only if that freed
// less than half of it: amortised constant time per Add.
func (l *ProcList) Add(p *Proc) {
	if n := len(l.procs); n == cap(l.procs) {
		l.procs = slices.DeleteFunc(l.procs, (*Proc).finished)
		if len(l.procs) > n/2 {
			l.procs = slices.Grow(l.procs, n)
		}
	}
	l.procs = append(l.procs, p)
}

// Live returns the unfinished procs, in the order they were added.
func (l *ProcList) Live() []*Proc {
	return slices.DeleteFunc(slices.Clone(l.procs), (*Proc).finished)
}

func (p *Proc) finished() bool { return p.state == procDone }

// ID returns the process id, unique within its engine.
func (p *Proc) ID() int { return p.id }

// Name returns the process name.
func (p *Proc) Name() string { return p.name.String() }

// State returns the proc's scheduling state ("new", "running", "parked",
// "done") for diagnostics.
func (p *Proc) State() string { return p.state.String() }

// BlockReason returns what a parked proc is waiting on ("" if not
// parked), for diagnostics.
func (p *Proc) BlockReason() string { return p.blockReason }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

func (p *Proc) describe() string {
	s := fmt.Sprintf("%s[%d] %s", p.name, p.id, p.state)
	if p.blockReason != "" {
		s += " (" + p.blockReason + ")"
	}
	return s
}

// yieldToEngine gives control back to the engine loop, returning when
// the engine resumes this proc. If the engine stops the coroutine
// instead, the body unwinds with procAbort.
func (p *Proc) yieldToEngine() {
	if !p.co.yield(struct{}{}) {
		panic(procAbort{})
	}
}

// Sleep advances this process's virtual time by d, letting other events
// run: it is a WakeAfter(d) and a park with nothing to re-test, so an
// Unpark or a WakeAllParked meanwhile neither ends it nor leaves a
// permit. Even a zero-length sleep is a scheduling point: it lets
// same-timestamp events queued earlier run first.
func (p *Proc) Sleep(d Time) {
	p.WakeAfter(d)
	p.state = procParked
	p.yieldToEngine()
}

// Park blocks the process until another strand calls Unpark. If an unpark
// permit is already stored (Unpark ran while this proc was not parked),
// Park consumes it and returns immediately. A return says only that
// somebody called Unpark, not why: a proc that waits for a condition waits
// in WaitWith, which tests it at every wake-up.
func (p *Proc) Park(reason string) {
	if p.permit {
		p.permit = false
		return
	}
	p.state = procParked
	p.blockReason = reason
	p.yieldToEngine()
	p.blockReason = ""
}

// Unpark wakes p if it is parked, or stores a permit so p's next Park
// returns immediately. Safe to call from event callbacks or other procs;
// the wake is delivered as a same-time event, preserving determinism.
func (p *Proc) Unpark() {
	switch p.state {
	case procParked:
		if p.wakePending {
			return
		}
		p.wakePending = true
		p.eng.atProc(p.eng.now, p)
	case procDone:
		// nothing to wake
	default:
		p.permit = true
	}
}

// A Waker is what a proc waits on in WaitWith: a condition together with
// the work that goes with it.
type Waker interface {
	// Wake makes what progress it can now and reports whether the proc
	// must go on waiting, and on what.
	Wake() (reason string, wait bool)
}

// WaitWith blocks p until w lets it go on. It calls w.Wake, and only this
// first call runs on p: once p is parked, each wake-up that would resume
// it (an Unpark, deduplicated as ever) runs w.Wake in its event instead,
// and resumes p in that event only if Wake lets it go on. So a wake-up
// costs the event it always cost but no switch to p's stack, and p parks
// once however often it is woken. A stored permit makes p test again at
// once, as it makes Park return at once; an Unpark from inside Wake is
// such a permit.
func (p *Proc) WaitWith(w Waker) {
	if reason, wait := p.retest(w); wait {
		p.co.waker, p.state, p.blockReason = w, procParked, reason
		p.yieldToEngine()
		p.co.waker, p.blockReason = nil, ""
	}
}

// WakeAfter queues p's one wake-up d from now, for a Waker that must wait
// out a delay: it calls WakeAfter from Wake and says wait, and Wake runs
// again when the delay is over. Until then an Unpark, a WakeAllParked or a
// stored permit schedules nothing and does not end the delay, as none of
// them ends a Sleep; the delay costs one event, as a Sleep does.
func (p *Proc) WakeAfter(d Time) {
	p.wakePending = true
	p.eng.atProc(p.eng.now+max(d, 0), p)
}

// retest calls w.Wake, and again for each permit p holds while Wake says
// wait and has queued no wake-up of its own.
func (p *Proc) retest(w Waker) (reason string, wait bool) {
	reason, wait = w.Wake()
	for wait && p.permit && !p.wakePending {
		p.permit = false
		reason, wait = w.Wake()
	}
	return reason, wait
}
