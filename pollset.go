package caf

import "caf2go/internal/failure"

// PollSet multiplexes the completions of many outstanding asynchronous
// operations on one image. Direct Op callbacks run in engine context and
// must not block; a PollSet instead routes each completion into a ready
// queue that the owning image drains on its own proc — so handlers may
// block, and an image can overlap N operations with local work and run
// whichever continuations are ready without parking (Poll), parking only
// when it has nothing else to do (Wait/Drain).
//
// Ready continuations run in completion order (the deterministic engine
// order their trigger levels fired in), so equal seeds replay equal
// handler schedules. A PollSet is bound to the execution context that
// created it: only that proc may call Poll, Wait, or Drain. Registering
// new operations from inside a handler (or from a direct continuation on
// another image) is allowed — the set's counters are only touched at
// engine points, which never race in the single-threaded simulation.
type PollSet struct {
	img     *Image
	ready   []func()
	pending int // registered continuations not yet run
}

// NewPollSet creates an empty poll set owned by this image context.
func (img *Image) NewPollSet() *PollSet {
	// The set keeps its Image, to wake and to wait on.
	img.parker("NewPollSet")
	return &PollSet{img: img}
}

// Pending reports registered continuations that have not run yet
// (including those already ready).
func (ps *PollSet) Pending() int { return ps.pending }

// Ready reports continuations whose trigger level has fired but which
// have not been run by Poll/Wait/Drain yet.
func (ps *PollSet) Ready() int { return len(ps.ready) }

// enqueue moves a fired continuation to the ready queue and wakes the
// owner if it is parked in Wait.
func (ps *PollSet) enqueue(fn func()) {
	ps.ready = append(ps.ready, fn)
	ps.img.proc.Unpark()
}

// register arms fn on level l of o; it becomes ready when the level
// fires (immediately if it already has).
func (ps *PollSet) register(o *Op, l CompletionLevel, fn func()) {
	if fn == nil {
		fn = func() {}
	}
	if o.pctx.Active() {
		// A poll-set handler continues the traced request whose op
		// released it: restore that request's context (parented to the
		// op) around the handler body, so operations it initiates
		// stay on the request's causal DAG.
		inner := fn
		c := o.childCtx()
		fn = func() {
			prev := ps.img.PathScope(c)
			inner()
			ps.img.pctx = prev
		}
	}
	ps.pending++
	o.on(l, func() { ps.enqueue(fn) })
}

// OnLocalData arms fn to run from the poll set at o's local data
// completion.
func (ps *PollSet) OnLocalData(o *Op, fn func()) { ps.register(o, LocalData, fn) }

// OnLocalCompletion arms fn to run from the poll set at o's local
// operation completion.
func (ps *PollSet) OnLocalCompletion(o *Op, fn func()) { ps.register(o, LocalCompletion, fn) }

// OnGlobalCompletion arms fn to run from the poll set at o's global
// completion.
func (ps *PollSet) OnGlobalCompletion(o *Op, fn func()) { ps.register(o, GlobalCompletion, fn) }

// Add tracks o's global completion with no handler body — membership
// only, for code that just needs Drain to cover the op.
func (ps *PollSet) Add(o *Op) { ps.register(o, GlobalCompletion, nil) }

// Poll runs every ready continuation (including ones made ready by the
// handlers themselves) and returns how many ran. It never parks.
func (ps *PollSet) Poll() int {
	n := 0
	for len(ps.ready) > 0 {
		fn := ps.ready[0]
		ps.ready[0] = nil
		ps.ready = ps.ready[1:]
		ps.pending--
		n++
		fn()
	}
	ps.ready = nil // release the drained backing array
	return n
}

// Wait parks the owning proc until at least one continuation is ready,
// runs all ready ones, and returns how many ran. With nothing pending it
// returns 0 immediately. Like every blocking primitive, a wait that can
// only be released by a dead image aborts with an ImageFailedError when
// the failure detector is enabled.
func (ps *PollSet) Wait() int {
	if len(ps.ready) == 0 && ps.pending > 0 {
		img := ps.img
		// The completions being waited on may still sit in this image's
		// deferred-initiation buffer or coalescing buffers; a wait is a
		// synchronization point, so put them on the wire first — before
		// parking, like cofence and event wait.
		img.syncPoint(AllowNone)
		start := img.Now()
		btok := img.beginBlock("pollset")
		img.parker("PollSet.Wait").WaitWith((*pollSetWait)(ps))
		img.endBlock(btok)
		img.traceSpan("pollset_wait", "sync", start)
		if len(ps.ready) == 0 {
			// Woken by a failure declaration with nothing ready: the
			// completions this image is waiting for may be lost with the
			// dead image. Fail-stop rather than park forever.
			panic(failure.Abort{Err: img.m.det.ErrFor("pollset wait")})
		}
	}
	return ps.Poll()
}

// pollSetWait is what Wait waits on: a ready continuation, or a death.
type pollSetWait PollSet

func (w *pollSetWait) Wake() (string, bool) {
	return "pollset wait", len(w.ready) == 0 && !w.img.m.det.AnyDead()
}

// Drain runs continuations until none are pending — the poll-set
// equivalent of waiting for every registered completion — and returns
// how many ran. Handlers may register more work; Drain covers it too.
func (ps *PollSet) Drain() int {
	n := ps.Poll()
	for ps.pending > 0 {
		n += ps.Wait()
	}
	return n
}
