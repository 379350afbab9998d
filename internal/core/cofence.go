package core

import (
	"slices"

	"caf2go/internal/failure"
	"caf2go/internal/sim"
)

// OpClass describes how an asynchronous operation touches the initiating
// image's local data — the classification cofence's directional arguments
// filter on (§III-B).
type OpClass uint8

// OpClass bits.
const (
	// OpReads marks operations that read local data (e.g. an async copy
	// out of a local source buffer).
	OpReads OpClass = 1 << iota
	// OpWrites marks operations that write local data (e.g. an async
	// copy into a local destination buffer).
	OpWrites
)

func (c OpClass) String() string {
	switch c {
	case 0:
		return "none"
	case OpReads:
		return "read"
	case OpWrites:
		return "write"
	case OpReads | OpWrites:
		return "read|write"
	}
	return "?"
}

// Allow is a cofence directional argument: which class of implicitly-
// synchronized operations may cross the fence in that direction.
type Allow uint8

// Allow values, mirroring cofence(DOWNWARD=READ/WRITE/ANY, UPWARD=…).
// The zero value AllowNone is the default full fence: nothing crosses.
const (
	AllowNone  Allow = 0
	AllowRead  Allow = Allow(OpReads)
	AllowWrite Allow = Allow(OpWrites)
	AllowAny   Allow = Allow(OpReads | OpWrites)
)

func (a Allow) String() string {
	switch a {
	case AllowNone:
		return "none"
	case AllowRead:
		return "read"
	case AllowWrite:
		return "write"
	case AllowAny:
		return "any"
	}
	return "?"
}

// passes reports whether an operation of class c may defer its local data
// completion past a fence that allows a. An operation crosses only if
// every way it touches local data is allowed: an op that both reads and
// writes cannot cross a WRITE-only fence (§III-B: "a cofence that allows
// either a read or write to pass across may not have any practical
// effect if the unconstrained action must occur before a constrained
// action").
func passes(c OpClass, a Allow) bool {
	return c&^OpClass(a) == 0
}

// PendingOp is one implicitly-synchronized asynchronous operation whose
// local data completion has not yet been observed by a fence.
type PendingOp struct {
	class OpClass
	done  bool
	ct    *CofenceTracker
	cbs   *[]func() // made by the first OnLocalData
}

// Class returns the operation's local-data classification.
func (op *PendingOp) Class() OpClass { return op.class }

// LocalDataDone reports whether the op reached local data completion.
func (op *PendingOp) LocalDataDone() bool { return op.done }

// OnLocalData registers fn to run at the op's local data completion,
// immediately if it already completed. Callbacks run after fence waiters
// have been unparked, in registration order, exactly once.
func (op *PendingOp) OnLocalData(fn func()) {
	if fn == nil {
		return
	}
	if op.done {
		fn()
		return
	}
	if op.cbs == nil {
		op.cbs = new([]func())
	}
	*op.cbs = append(*op.cbs, fn)
}

// CompleteLocalData marks the operation locally data complete and wakes
// any fence waiting on it. It is idempotent.
func (op *PendingOp) CompleteLocalData() {
	if op.done {
		return
	}
	op.done = true
	// A finished op lets go of its tracker: the tracker may be a field of
	// the initiating context's record (a shipped function's), which an
	// operation that outlives the context must not keep alive.
	ct := op.ct
	op.ct = nil
	ct.sweep()
	ct.wakeFences()
	if op.cbs == nil {
		return
	}
	cbs := *op.cbs
	op.cbs = nil
	for i, fn := range cbs {
		cbs[i] = nil // consumed callbacks must not be retained
		fn()
	}
}

// Initiator starts an implicitly-synchronized operation: the record form
// of Register's initiate function. An operation that keeps a record of
// its own implements it on the record and registers through RegisterOp.
type Initiator interface {
	Initiate()
}

// InitiatorFunc makes a plain function an Initiator (no allocation: a
// func value fits an interface word).
type InitiatorFunc func()

// Initiate calls f.
func (f InitiatorFunc) Initiate() { f() }

// delayedOp is an initiation the relaxed runtime has buffered.
type delayedOp struct {
	class OpClass
	init  Initiator
}

// CofenceTracker is the per-image registry of implicitly-synchronized
// asynchronous operations. It provides the cofence wait and, in relaxed
// mode, an initiation buffer that models the runtime's freedom to defer
// starting implicit operations until a synchronization point demands
// them — the operational face of the paper's relaxed memory model.
type CofenceTracker struct {
	pending []*PendingOp

	// inline is pending's first backing array (see Init): most execution
	// contexts never have more operations outstanding than fit here.
	inline [2]*PendingOp

	// maxDelay is relaxed mode's initiation-buffer flush threshold; 0
	// when initiations are not buffered (eager mode, or relaxed mode
	// flushing immediately).
	maxDelay int

	det *failure.Detector // nil ⇒ fences may block forever on lost ops

	// rare holds what only a blocked fence or relaxed-mode buffering
	// needs, made by the first of them: a context that does neither (a
	// shipped function, typically) carries one pointer for both.
	rare *ctRare
}

// ctRare is a CofenceTracker's fence waiters and buffered initiations.
type ctRare struct {
	waiters []fenceWaiter
	delayed []delayedOp
	fences  [AllowAny + 1]fenceWake // what every fence of each class waits on
}

// fenceWake is what a fence allowing down waits on: no constrained
// operation pending, or a declared death.
type fenceWake struct {
	*CofenceTracker
	down Allow
}

func (w *fenceWake) Wake() (string, bool) { return "cofence", !w.clear(w.down) && !w.det.AnyDead() }

// rareState returns ct's fence waiters and buffered initiations, making
// the record if needed.
func (ct *CofenceTracker) rareState() *ctRare {
	if ct.rare == nil {
		ct.rare = new(ctRare)
	}
	return ct.rare
}

// fenceWaiter is a proc parked in Cofence and the class of operations its
// fence lets pass.
type fenceWaiter struct {
	p    *sim.Proc
	down Allow
}

// NewCofenceTracker returns a tracker. With relaxed=false, operations
// initiate eagerly (GASNet-style); with relaxed=true up to maxDelay
// initiations are buffered and released by fences and flushes.
func NewCofenceTracker(relaxed bool, maxDelay int) *CofenceTracker {
	ct := new(CofenceTracker)
	ct.Init(relaxed, maxDelay)
	return ct
}

// Init makes ct, in place, what NewCofenceTracker returns — for a tracker
// held by value inside its execution context's own record. The tracker
// must not be copied afterwards: pending starts out on the inline array.
func (ct *CofenceTracker) Init(relaxed bool, maxDelay int) {
	*ct = CofenceTracker{}
	if relaxed && maxDelay > 0 {
		ct.maxDelay = maxDelay
	}
	ct.pending = ct.inline[:0]
}

// Pending reports the number of registered ops not yet local-data
// complete.
func (ct *CofenceTracker) Pending() int { return len(ct.pending) }

// Delayed reports the number of buffered initiations (relaxed mode).
func (ct *CofenceTracker) Delayed() int {
	if ct.rare == nil {
		return 0
	}
	return len(ct.rare.delayed)
}

// Register records an implicitly-synchronized operation of the given
// class and schedules its initiation. In eager mode initiate runs
// immediately; in relaxed mode it may be buffered. The returned PendingOp
// must be marked via CompleteLocalData when the op's local buffers are
// free.
func (ct *CofenceTracker) Register(class OpClass, initiate func()) *PendingOp {
	op := new(PendingOp)
	ct.RegisterOp(op, class, InitiatorFunc(initiate))
	return op
}

// RegisterOp is Register for an operation that brings its own PendingOp
// (typically a field of the record that is also its Initiator), so
// registering allocates nothing. op is overwritten, and stays on the
// pending list until its CompleteLocalData.
func (ct *CofenceTracker) RegisterOp(op *PendingOp, class OpClass, init Initiator) {
	*op = PendingOp{class: class, ct: ct}
	ct.pending = append(ct.pending, op)
	ct.initiate(class, init)
}

// RegisterDone registers an operation whose local data completes at
// registration (a spawn's: argument evaluation). It does what RegisterOp
// followed at once by CompleteLocalData does — the same initiation, eager
// or buffered under the same flush rule, and the same wake of fence
// waiters — but stores no PendingOp: a registration complete at birth is
// never pending, so no fence can wait on it.
func (ct *CofenceTracker) RegisterDone(class OpClass, init Initiator) {
	ct.initiate(class, init)
	ct.wakeFences()
}

// initiate starts a registered operation: now in eager mode, else into
// the relaxed buffer, which is flushed once it holds more than maxDelay.
func (ct *CofenceTracker) initiate(class OpClass, init Initiator) {
	if ct.maxDelay > 0 {
		r := ct.rareState()
		r.delayed = append(r.delayed, delayedOp{class: class, init: init})
		if len(r.delayed) > ct.maxDelay {
			ct.flushDelayed(AllowNone)
		}
	} else {
		init.Initiate()
	}
}

// wakeFences unparks each fence waiter that may now pass. A fence is
// woken only when it may pass: resuming it to find another constrained
// operation pending would be an event spent on parking again. (A
// declared death reaches parked fences through the machine's
// WakeAllParked, not through here.)
func (ct *CofenceTracker) wakeFences() {
	if ct.rare == nil {
		return
	}
	for _, w := range ct.rare.waiters {
		if ct.clear(w.down) {
			w.p.Unpark()
		}
	}
}

// sweep drops completed ops from the pending list.
func (ct *CofenceTracker) sweep() {
	live := ct.pending[:0]
	for _, op := range ct.pending {
		if !op.done {
			live = append(live, op)
		}
	}
	for i := len(live); i < len(ct.pending); i++ {
		ct.pending[i] = nil
	}
	ct.pending = live
}

// flushDelayed initiates buffered ops that may not defer past a fence
// allowing `down`. Ops whose class passes stay buffered (their initiation
// may legally move below the fence).
func (ct *CofenceTracker) flushDelayed(down Allow) {
	if ct.rare == nil {
		return
	}
	r := ct.rare
	keep := r.delayed[:0]
	for _, d := range r.delayed {
		if passes(d.class, down) {
			keep = append(keep, d)
		} else {
			d.init.Initiate()
		}
	}
	for i := len(keep); i < len(r.delayed); i++ {
		r.delayed[i] = delayedOp{}
	}
	r.delayed = keep
}

// Flush initiates every buffered op unconditionally (used by event
// notify/wait, finish boundaries, and program exit).
func (ct *CofenceTracker) Flush() { ct.flushDelayed(AllowNone) }

// Constrained returns the registered ops a fence allowing `down` would
// wait on: not yet local-data complete and not allowed to pass. Buffered
// initiations that may not defer past such a fence are started first,
// exactly as Cofence would — this is the non-parking face of the fence,
// for callers that register completion callbacks instead of blocking.
func (ct *CofenceTracker) Constrained(down Allow) []*PendingOp {
	ct.flushDelayed(down)
	var out []*PendingOp
	for _, op := range ct.pending {
		if !op.done && !passes(op.class, down) {
			out = append(out, op)
		}
	}
	return out
}

// clear reports whether no registered operation constrains a fence that
// allows down.
func (ct *CofenceTracker) clear(down Allow) bool {
	for _, op := range ct.pending {
		if !op.done && !passes(op.class, down) {
			return false
		}
	}
	return true
}

// TryCofence is the part of Cofence that never blocks: it starts the
// buffered initiations that may not defer past a fence allowing down and
// reports whether the fence can be passed at once. A context that cannot
// park (a shipped function run inline) fences with it.
func (ct *CofenceTracker) TryCofence(down Allow) bool {
	ct.flushDelayed(down)
	return ct.clear(down)
}

// Cofence blocks process p until every registered implicitly-synchronized
// operation not allowed to pass downward is local data complete. The up
// argument is accepted for API fidelity: it constrains compile-time
// hoisting of later operations above the fence, which a runtime executing
// in program order never performs; it also does not affect which buffered
// initiations may remain deferred (that is down's job).
func (ct *CofenceTracker) Cofence(p *sim.Proc, down, up Allow) {
	_ = up
	if ct.TryCofence(down) {
		return
	}
	r := ct.rareState()
	r.waiters = append(r.waiters, fenceWaiter{p, down})
	r.fences[down] = fenceWake{ct, down}
	p.WaitWith(&r.fences[down])
	r.waiters = slices.DeleteFunc(r.waiters, func(w fenceWaiter) bool { return w.p == p })
	ct.sweep()
	if !ct.clear(down) {
		// A failure declaration woke the fence while constrained ops
		// were still pending: some may have been lost with the dead
		// image. Fail-stop rather than wait forever.
		panic(failure.Abort{Err: ct.det.ErrFor("cofence")})
	}
}

// SetDetector makes fences failure-aware: a cofence blocked on ops that
// can no longer complete (their peer was declared dead) aborts with an
// ImageFailedError instead of hanging. nil preserves legacy blocking.
func (ct *CofenceTracker) SetDetector(d *failure.Detector) { ct.det = d }
