package caf

import (
	"caf2go/internal/core"
	"caf2go/internal/failure"
	"caf2go/internal/trace"
)

// Allow re-exports the cofence directional filter type.
type Allow = core.Allow

// Cofence directional arguments, mirroring
// cofence(DOWNWARD=READ/WRITE/ANY, UPWARD=…). AllowNone (the default,
// i.e. cofence()) lets nothing cross.
const (
	AllowNone  = core.AllowNone
	AllowRead  = core.AllowRead
	AllowWrite = core.AllowWrite
	AllowAny   = core.AllowAny
)

// Finish executes body inside a finish block over team t (nil means
// team_world), then blocks until every asynchronous operation with
// implicit completion initiated inside the block — by any member image,
// including transitively spawned functions — is globally complete
// (§III-A). Every member of t must execute the matching Finish. It
// returns the number of termination-detection reduction rounds used.
func (img *Image) Finish(t *Team, body func()) int {
	if t == nil {
		t = img.m.world
	}
	p := img.parker("Finish")
	start := img.Now()
	s := img.m.plane.Begin(img.st.kern, t)
	r := img.rareHalf()
	r.finishStack = append(r.finishStack, s)
	preOps := len(r.raceOps)
	body()
	r.finishStack = r.finishStack[:len(r.finishStack)-1]
	// The end of a finish block is a synchronization point: deferred
	// initiations must start or termination detection would wait on
	// operations that never launch, and coalescing buffers must drain so
	// detection isn't gated on a flush timer.
	img.syncPoint(AllowNone)
	// Race-detector release: each member contributes its end-of-body
	// clock; detection cannot signal termination before every member
	// participates in the reduction, so the exit below acquires them all.
	var fs *finishSync
	if rs := img.m.race; rs != nil && r.rc != nil {
		fs = rs.finishSyncFor(s.Ref().ID)
		r.rc.ReleaseInto(&fs.members)
	}
	detect := img.Now()
	// The detection phase is where the proc parks waiting on outstanding
	// ops; the blocked-time profiler attributes it to them.
	btok := img.beginBlock("finish")
	rounds, ferr := img.m.plane.End(p, img.st.kern, s)
	if ferr != nil {
		// The resilient protocol terminated the block over the survivor
		// team, but activities it supervised died with an image (or this
		// image was itself declared dead). Fail-stop: unwind this
		// image's context; the machine records the error and surfaces it
		// from RunToCompletion and Machine.ImageErrors.
		img.endBlock(btok)
		img.traceSpan("finish", "sync", start)
		panic(failure.Abort{Err: ferr})
	}
	img.endBlock(btok)
	if life := img.m.life; life != nil {
		life.AddFinish(trace.FinishRound{
			Img:     img.Rank(),
			Start:   detect,
			End:     img.Now(),
			Rounds:  rounds,
			RoundAt: append([]Time(nil), s.RoundAt...),
		})
	}
	if fs != nil {
		// Acquire: the exit is ordered after every member's body and
		// after every implicitly-completed operation initiated inside
		// the block (their clocks were joined into fs.ops/fs.refs at
		// initiation; global completion is what End just waited for).
		r.rc.Acquire(fs.members)
		r.rc.Acquire(fs.ops)
		for _, ref := range fs.refs {
			r.rc.Acquire(*ref)
		}
		// Ops initiated inside the block are now fully acquired; a later
		// cofence need not (and must not re-)consider them.
		if preOps < len(r.raceOps) {
			r.raceOps = r.raceOps[:preOps]
		}
	}
	img.traceSpan("finish", "sync", start)
	img.traceSpan("finish-detect", "sync", detect)
	return rounds
}

// Cofence blocks until every implicitly-synchronized asynchronous
// operation initiated earlier by this image is local data complete,
// except those whose class `down` allows to defer past the fence
// (§III-B). `up` constrains which later operations may be hoisted above
// the fence; a runtime executing in program order never hoists, so it is
// recorded for API fidelity and relaxed-mode bookkeeping only.
//
// img.Cofence(AllowNone, AllowNone) is the full fence cofence();
// img.Cofence(AllowWrite, AllowWrite) is cofence(WRITE, WRITE) from the
// paper's Fig. 9, letting pending local-write completions slide below.
func (img *Image) Cofence(down, up Allow) {
	start := img.Now()
	img.syncPoint(down)
	btok := img.beginBlock("cofence")
	// An inline shipped function has no proc to park, but may fence what
	// is already complete.
	if img.proc != nil || !img.ct.TryCofence(down) {
		img.ct.Cofence(img.parker("Cofence"), down, up)
	}
	img.endBlock(btok)
	// Race-detector acquire: the fence ordered this context after the
	// local data completion of every implicit op the DOWNWARD filter did
	// not let pass. Ops that passed stay pending — acquiring a completed
	// but unfenced op would hide exactly the races the detector exists to
	// catch.
	if r := img.rare; r != nil && r.rc != nil {
		live := r.raceOps[:0]
		for _, ro := range r.raceOps {
			blocked := ro.class&^core.OpClass(down) != 0
			if blocked && ro.op.LocalDataDone() {
				if ro.clkRef != nil {
					r.rc.Acquire(*ro.clkRef)
				}
				continue
			}
			live = append(live, ro)
		}
		r.raceOps = live
	}
	img.traceSpan("cofence", "sync", start)
}

// CofenceOp is the continuation form of Cofence: instead of parking
// until every constrained implicit operation is local data complete, it
// returns an Op whose levels all fire at that point (immediately, if
// nothing is outstanding). Buffered relaxed-mode initiations that may
// not defer past a fence allowing `down` are started, exactly as
// Cofence(down, …) would.
//
// Unlike the blocking Cofence, CofenceOp is NOT a race-detector acquire
// point: continuations run in engine context and the initiating context
// keeps executing, so no happens-before edge is installed. Code that
// needs the fence's ordering guarantee for subsequent local accesses
// should still call Cofence (or drain a PollSet and let the explicit
// synchronization that releases it do the ordering).
func (img *Image) CofenceOp(down Allow) *Op {
	img.traceInstant("cofence_op", "sync")
	f := new(cofenceOp)
	img.opInit(&f.op, "cofence", -1)
	img.opStage(&f.op, trace.StageInit)
	img.syncPoint(down)
	img.ct.CofenceOp(&f.fence, down, f)
	return &f.op
}

// cofenceOp is a continuation fence's one record: its completion handle
// and its count on the tracker, which fires it.
type cofenceOp struct {
	op    Op
	fence core.Fence
}

// Fire completes the fence's op: a cofence is purely local, so all three
// levels collapse.
func (f *cofenceOp) Fire() {
	m, me := f.op.m, f.op.Initiator()
	m.opAdvance(&f.op, me, trace.StageLocalData)
	m.opAdvance(&f.op, me, trace.StageLocalOp)
	m.opAdvance(&f.op, me, trace.StageGlobal)
}

// syncPoint is what every synchronization point does before it waits or
// releases: it starts the deferred initiations a fence allowing down may
// not defer, then flushes this image's coalescing buffers, so what it
// started is on the wire rather than held for a flush timer.
func (img *Image) syncPoint(down Allow) {
	img.ct.Flush(down)
	img.st.kern.FlushCoalesced()
}

// PendingImplicitOps reports how many implicitly-synchronized operations
// initiated by this image have not yet reached local data completion
// (diagnostic).
func (img *Image) PendingImplicitOps() int { return img.ct.Pending() }
