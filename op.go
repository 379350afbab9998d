package caf

import (
	"caf2go/internal/path"
	"caf2go/internal/trace"
)

// CompletionLevel names one of the callback-capable completion levels of
// an asynchronous operation (paper Fig. 1). Initiation is not a callback
// level: by the time an Op handle exists, initiation has either happened
// or is scheduled unconditionally (relaxed mode may defer it to the next
// synchronization point, but it cannot be cancelled).
type CompletionLevel uint8

const (
	// LocalData: the initiator's local buffers are out of play — a source
	// may be overwritten, a destination read (Fig. 4 row by row).
	LocalData CompletionLevel = iota
	// LocalCompletion: nothing further is required of the initiating
	// image (the paper's local operation completion).
	LocalCompletion
	// GlobalCompletion: the operation is complete everywhere, including
	// the remote side.
	GlobalCompletion
	numLevels
)

func (l CompletionLevel) String() string {
	switch l {
	case LocalData:
		return "local-data"
	case LocalCompletion:
		return "local-completion"
	case GlobalCompletion:
		return "global-completion"
	}
	return "unknown"
}

// levelOf maps a lifecycle stage to its callback level (ok=false for
// StageInit, which has no callback level).
func levelOf(stage trace.Stage) (CompletionLevel, bool) {
	switch stage {
	case trace.StageLocalData:
		return LocalData, true
	case trace.StageLocalOp:
		return LocalCompletion, true
	case trace.StageGlobal:
		return GlobalCompletion, true
	}
	return 0, false
}

// Op is the completion handle of one asynchronous operation. Every async
// initiation — CopyAsync, SpawnHandle, EventNotify, the Async collectives
// (via Collective.Op), CofenceOp — returns one. Spawn and SpawnRecord do
// not: like CAF 2.0's spawn they are statements, observed through finish,
// cofence or their event, and their records are recycled. Instead of
// parking in a blocking primitive, user code registers continuations on
// the operation's completion levels and keeps computing; the runtime
// fires each continuation exactly once, inline at the engine point where
// the level is first observed.
//
// Firing rules (see DESIGN §4.8):
//
//   - Deterministic order: continuations run at existing completion
//     transitions of the deterministic simulation, in registration order
//     within a level. Equal seeds fire equal schedules.
//   - Levels are observed independently, where they happen: a put's
//     global completion is observed at the destination and can fire
//     before the initiator's local ack (LocalCompletion). Registering on
//     a level that has already completed runs the callback immediately,
//     inline with the registration.
//   - Direct callbacks run in engine context (possibly inside a remote
//     image's delivery handler). They must not block — no EventWait,
//     Cofence, Finish, blocking Get/Put, or collective waits — but they
//     may initiate further asynchronous operations, register more
//     continuations, and notify events. Callbacks that need to block
//     belong in a PollSet, whose handlers run on the polling proc.
//
// A nil *Op is inert: registrations on it panic, so a lost handle fails
// loudly rather than silently never firing.
type Op struct {
	m    *Machine
	kind string

	// id is the op's record in the machine's op log (0 when no tracker
	// keeps it); the continuation machinery is independent of it and
	// fires either way.
	id int64

	// pctx ties the op to the traced request it serves (zero when path
	// tracing is off or no request context was active); the op's own
	// record is its node on the request's causal DAG.
	pctx path.Ctx

	img  int32 // initiating image's world rank (Initiator)
	done [numLevels]bool
	rec  uint8                // a spawn record's recPooled, recEnded, recDead; in the byte after done
	cbs  *[numLevels][]func() // made by the first registration
}

// Kind returns the operation kind ("copy", "spawn", "notify",
// "coll:<name>", "cofence", "then", ...).
func (o *Op) Kind() string { return o.kind }

// Initiator returns the world rank of the image that initiated the op.
func (o *Op) Initiator() int { return int(o.img) }

// Done reports whether the given completion level has been observed.
func (o *Op) Done(l CompletionLevel) bool {
	return l < numLevels && o.done[l]
}

// on registers fn on level l, firing immediately if l already completed.
func (o *Op) on(l CompletionLevel, fn func()) {
	if fn == nil {
		return
	}
	if o.done[l] {
		fn()
		return
	}
	if o.cbs == nil {
		o.cbs = new([numLevels][]func())
	}
	o.cbs[l] = append(o.cbs[l], fn)
}

// OnLocalData registers fn to run at local data completion: the
// initiator's buffers are reusable/readable. Returns o for chaining.
func (o *Op) OnLocalData(fn func()) *Op {
	o.on(LocalData, fn)
	return o
}

// OnLocalCompletion registers fn to run at local operation completion:
// nothing further is required of the initiating image. Returns o.
func (o *Op) OnLocalCompletion(fn func()) *Op {
	o.on(LocalCompletion, fn)
	return o
}

// OnGlobalCompletion registers fn to run at global completion: the
// operation is complete everywhere. Returns o.
func (o *Op) OnGlobalCompletion(fn func()) *Op {
	o.on(GlobalCompletion, fn)
	return o
}

// Then chains fn after o's global completion and returns a derived Op
// representing fn's own completion: all three of its levels fire, in
// order, when fn returns. fn follows the direct-callback rules (engine
// context, must not block) — it typically initiates the next operation
// of a chain, whose handle it can feed into further continuations or a
// PollSet. If o is already globally complete, fn runs inline now.
func (o *Op) Then(fn func()) *Op {
	m := o.m
	// The chained step inherits the parent op's request context, parented
	// to the parent op.
	d := &Op{m: m, kind: "then", img: o.img, pctx: o.childCtx()}
	d.id = m.ops.New("then", d.Initiator(), -1, m.eng.Now(), d.pctx.Req, d.pctx.Span)
	o.OnGlobalCompletion(func() {
		me := d.Initiator()
		m.opAdvance(d, me, trace.StageInit)
		fn()
		m.opAdvance(d, me, trace.StageLocalData)
		m.opAdvance(d, me, trace.StageLocalOp)
		m.opAdvance(d, me, trace.StageGlobal)
	})
	return d
}

// childCtx is the request context of work o's completion continues:
// o's request, parented to o (zero when o serves no traced request).
func (o *Op) childCtx() path.Ctx {
	if !o.pctx.Active() {
		return path.Ctx{}
	}
	return path.Ctx{Req: o.pctx.Req, Span: int32(o.id)}
}

// reach marks the level mapped from stage complete and fires its
// registered continuations in registration order. Idempotent per level;
// levels are exact (reaching a higher level does not fire a lower one:
// an abandoned put stamps its terminal stages without its buffers ever
// becoming reusable).
func (o *Op) reach(stage trace.Stage) {
	l, ok := levelOf(stage)
	if !ok || o.done[l] {
		return
	}
	o.done[l] = true
	if o.cbs == nil {
		return
	}
	cbs := o.cbs[l]
	o.cbs[l] = nil
	for i, fn := range cbs {
		cbs[i] = nil // consumed continuations must not be retained
		fn()
	}
}

// opAdvance stamps a completion level on the op's record and fires the
// op's continuations for that level — the single choke point every
// completion path routes through, so lifecycle records, span stamps and
// continuation firing can never disagree about when a level was reached.
// With no callbacks registered and tracing off it is pure bookkeeping:
// legacy runs stay bit-identical.
//
// The trace, metrics and op-log state a stamp touches is shared across
// images, so stamping is only legal on the engine's single execution
// strand (an event callback or a proc the engine resumed). The assert
// turns any stray goroutine reaching this choke point into a loud panic
// instead of a silent race on that state.
func (m *Machine) opAdvance(o *Op, rank int, stage trace.Stage) {
	if o == nil {
		return
	}
	m.eng.AssertStrand("op stage advance")
	m.ops.Stage(o.id, rank, stage, m.eng.Now())
	o.reach(stage)
}
