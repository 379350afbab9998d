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
	seq   uint32 // registration number on ct, read by its continuation fences
	ct    *CofenceTracker
}

// Class returns the operation's local-data classification.
func (op *PendingOp) Class() OpClass { return op.class }

// LocalDataDone reports whether the op reached local data completion.
func (op *PendingOp) LocalDataDone() bool { return op.done }

// CompleteLocalData marks the operation locally data complete, wakes the
// parked fence if it may now pass, and then counts the operation off the
// continuation fences that wait on it. It is idempotent.
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
	if r := ct.rare; r != nil {
		// The parked fence is woken only when it may pass, so it resumes
		// once (a declared death reaches it through WakeAllParked).
		if r.p != nil && ct.clear(r.wake.down) {
			r.p.Unpark()
		}
		ct.countDown(r, op)
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
// asynchronous operations. It provides the cofence wait, the continuation
// fence and, in relaxed mode, an initiation buffer that models the
// runtime's freedom to defer starting implicit operations until a
// synchronization point demands them — the operational face of the
// paper's relaxed memory model. Its execution context has one proc, so
// a tracker has at most one parked fence.
type CofenceTracker struct {
	pending []*PendingOp

	// inline is pending's first backing array (see Init): most execution
	// contexts never have more operations outstanding than fit here.
	inline [2]*PendingOp

	// maxDelay is relaxed mode's initiation-buffer flush threshold; 0
	// when initiations are not buffered (eager mode, or relaxed mode
	// flushing immediately).
	maxDelay int32

	seq uint32 // the last number given to a registration or continuation fence

	det *failure.Detector // nil ⇒ fences may block forever on lost ops

	// rare holds what only a fence or relaxed-mode buffering needs, made
	// by the first of them: a context that does neither (a shipped
	// function, typically) carries one pointer for both.
	rare *ctRare
}

// ctRare is a CofenceTracker's fences and buffered initiations.
type ctRare struct {
	delayed []delayedOp
	conts   []*Fence  // continuation fences, in creation order
	p       *sim.Proc // the proc parked in Cofence, nil when none
	wake    fenceWake // what p waits on
}

// fenceWake is what the parked fence, allowing down, waits on: no
// constrained operation pending, or a declared death.
type fenceWake struct {
	*CofenceTracker
	down Allow
}

func (w *fenceWake) Wake() (string, bool) { return "cofence", !w.clear(w.down) && !w.det.AnyDead() }

// rareState returns ct's fences and buffered initiations, making the
// record if needed.
func (ct *CofenceTracker) rareState() *ctRare {
	if ct.rare == nil {
		ct.rare = &ctRare{wake: fenceWake{CofenceTracker: ct}}
	}
	return ct.rare
}

// Fence is a continuation fence: the form of Cofence that, instead of
// parking, fires once every operation it constrains is local data
// complete. Its owner keeps it in its own record, with what it fires.
type Fence struct {
	down Allow
	left int32  // constrained operations still pending
	seq  uint32 // ops registered before it have lower numbers
	fire Firer
}

// Firer is what a continuation fence runs when it clears.
type Firer interface{ Fire() }

// after reports whether registration number a was given after b. The
// numbers wrap; a tracker never holds two live ones 2³¹ apart.
func after(a, b uint32) bool { return int32(a-b) > 0 }

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
		ct.maxDelay = int32(maxDelay)
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
	ct.seq++
	*op = PendingOp{class: class, seq: ct.seq, ct: ct}
	ct.pending = append(ct.pending, op)
	if r := ct.rare; r != nil && r.p != nil && !passes(class, r.wake.down) {
		// The parked fence waits on this op (a continuation registered it),
		// so nothing would start it from the buffer.
		init.Initiate()
		return
	}
	ct.initiate(class, init)
}

// RegisterDone registers an operation whose local data completes at
// registration (a spawn's: argument evaluation). It initiates as
// RegisterOp does — eager or buffered under the same flush rule — but
// stores no PendingOp: a registration complete at birth is never
// pending, so no fence waits on it, and it cannot clear one either.
func (ct *CofenceTracker) RegisterDone(class OpClass, init Initiator) {
	ct.initiate(class, init)
}

// initiate starts a registered operation: now in eager mode, else into
// the relaxed buffer, which is flushed once it holds more than maxDelay.
func (ct *CofenceTracker) initiate(class OpClass, init Initiator) {
	if ct.maxDelay > 0 {
		r := ct.rareState()
		r.delayed = append(r.delayed, delayedOp{class: class, init: init})
		if len(r.delayed) > int(ct.maxDelay) {
			ct.Flush(AllowNone)
		}
	} else {
		init.Initiate()
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
	clear(ct.pending[len(live):])
	ct.pending = live
}

// Flush initiates the buffered ops that may not defer past a fence
// allowing down; ops whose class passes stay buffered (their initiation
// may legally move below the fence). Flush(AllowNone) initiates every
// buffered op.
func (ct *CofenceTracker) Flush(down Allow) {
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
	clear(r.delayed[len(keep):])
	r.delayed = keep
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
	ct.Flush(down)
	return ct.clear(down)
}

// Cofence blocks process p until every registered implicitly-synchronized
// operation not allowed to pass downward is local data complete,
// including one a continuation registers while p waits. The up argument
// is accepted for API fidelity: it constrains compile-time hoisting of
// later operations above the fence, which a runtime executing in program
// order never performs; it also does not affect which buffered
// initiations may remain deferred (that is down's job).
func (ct *CofenceTracker) Cofence(p *sim.Proc, down, up Allow) {
	_ = up
	if ct.TryCofence(down) {
		return
	}
	r := ct.rareState()
	if r.p != nil {
		panic("core: two fences parked on one cofence tracker")
	}
	r.p, r.wake.down = p, down
	p.WaitWith(&r.wake)
	r.p = nil
	ct.sweep()
	if !ct.clear(down) {
		// A failure declaration woke the fence while constrained ops
		// were still pending: some may have been lost with the dead
		// image. Fail-stop rather than wait forever.
		panic(failure.Abort{Err: ct.det.ErrFor("cofence")})
	}
}

// CofenceOp makes f a continuation fence allowing down, which runs
// fire.Fire once every operation registered so far that down constrains
// is local data complete: at once if none is pending. The caller starts
// the buffered initiations such a fence may not defer first (Flush).
func (ct *CofenceTracker) CofenceOp(f *Fence, down Allow, fire Firer) {
	*f = Fence{down: down, fire: fire}
	for _, op := range ct.pending {
		if !op.done && !passes(op.class, down) {
			f.left++
		}
	}
	if f.left == 0 {
		fire.Fire()
		return
	}
	ct.seq++
	f.seq = ct.seq
	r := ct.rareState()
	r.conts = append(r.conts, f)
}

// countDown counts op, just complete, off each continuation fence made
// after it was registered that its class does not pass, in creation
// order, and fires each fence that reaches zero. A firing may register
// operations and fences and complete others, so after one the walk
// rescans the list for fences numbered after the one it fired; it stops
// at those made after op completed, which did not count it.
func (ct *CofenceTracker) countDown(r *ctRare, op *PendingOp) {
	end, last := ct.seq, op.seq
	for i := 0; i < len(r.conts) && !after(r.conts[i].seq, end); i++ {
		f := r.conts[i]
		if !after(f.seq, last) || passes(op.class, f.down) {
			continue
		}
		if f.left--; f.left == 0 {
			r.conts = slices.Delete(r.conts, i, i+1)
			last, i = f.seq, -1
			f.fire.Fire()
		}
	}
}

// SetDetector makes fences failure-aware: a cofence blocked on ops that
// can no longer complete (their peer was declared dead) aborts with an
// ImageFailedError instead of hanging. nil preserves legacy blocking.
func (ct *CofenceTracker) SetDetector(d *failure.Detector) { ct.det = d }
