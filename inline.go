package caf

import (
	"fmt"
	"reflect"
	"runtime"

	"caf2go/internal/core"
	"caf2go/internal/path"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/trace"
)

// Inline declares that the shipped function never parks and occupies the
// target's handler context for service: it does local work, starts
// asynchronous operations, ships further functions, and returns. Such a
// function is a callback, and runs as one: where a plain Spawn gives the
// function a simulated process that would open with Compute(service), an
// inline one is a single event service after delivery, on the target's
// strand, with no process, no coroutine and a recycled Image. Under a
// traced request the service interval is claimed as handler-service time,
// as Compute would claim it.
//
// The contract the declaration makes:
//
//   - The function must not call anything that can park: Compute,
//     EventWait, Lock, blocking Get/Put, Finish, a Cofence that has to
//     wait, Barrier and the other collectives, NewPollSet. Each of them
//     panics with an *InlineParkError naming the function and the
//     operation. Follow-up work goes on the returned Op's continuations
//     or into a further Spawn.
//   - Its *Image is valid only until it returns. Keep nothing that holds
//     it; a function that must hand its Image to something longer-lived
//     is not an inline function.
//
// Everything observable is what the Compute-first proc would have
// produced: the function sees the same clock, runs under the same finish,
// cofence scope and request context, and completes at the same instant.
func Inline(service Time) SpawnOpt {
	return SpawnOpt{kind: optInline, service: max(service, 0)}
}

// InlineParkError is the panic of a shipped function that was declared
// Inline and then called an operation that can park. It is a programming
// error at the spawn site (drop the option, or move the blocking work into
// a continuation), so it is a panic, out of RunToCompletion, not an error.
type InlineParkError struct {
	Fn string // "spawn-exec:<name>" of a registered function, else the closure's symbol
	Op string // the operation that would have parked
}

func (e *InlineParkError) Error() string {
	return fmt.Sprintf("caf: %s called in shipped function %s, which was declared Inline and has no process to park", e.Op, e.Fn)
}

// parker returns the simulated process the calling context may park; op
// names the operation asking. Every entry point that can block goes
// through it: an inline shipped function has no process.
func (img *Image) parker(op string) *sim.Proc {
	if img.proc == nil {
		panic(&InlineParkError{Fn: img.spawn.execName(), Op: op})
	}
	return img.proc
}

// execName is the label the function's execution is reported under.
func (s *spawnOp) execName() string {
	if s.named != nil {
		return s.named.fn.exec
	}
	return runtime.FuncForPC(reflect.ValueOf(s.fn).Pointer()).Name()
}

// inlined is the target's record of an inline shipped function, from its
// delivery to the end of the one event that runs it: the Image the
// function sees (proc == nil) and that Image's cofence tracker. The
// record is that event (a sim.Event), so scheduling it builds nothing.
// Pooled on the Machine (DESIGN §4.14): the function's contract is that
// nothing keeps its Image, which is what an owned `shipped` cannot assume.
type inlined struct {
	img   Image
	ct    core.CofenceTracker
	s     *spawnOp
	d     *rt.Delivery // detached; completed when the function has returned
	start Time         // delivery: where the execution span begins
	dead  bool         // released under sim.QuarantinePools
}

// deliverInline accepts an inline shipped function on its target: what a
// proc's start event would do is done here, at delivery, so that counters,
// strand ids and race contexts are handed out in the order functions
// arrive, and the function itself is scheduled service from now.
func (m *Machine) deliverInline(st *imageState, s *spawnOp, d *rt.Delivery) {
	in := m.inlines.Get()
	if in == nil {
		in = new(inlined)
	}
	st.spawnsExecuted++
	st.nextTid++
	in.s, in.d, in.start = s, d, m.eng.Now()
	in.img = Image{m: m, st: st, tid: st.nextTid,
		inheritedFinish: s.finishID, pctx: s.pctx, spawn: s}
	in.img.ct = m.initTracker(&in.ct)
	if rs := m.race; rs != nil {
		in.img.rc = rs.d.NewCtx(m.raceChanArrive(d.Src, st.kern.Rank(), s.tok.clk))
	}
	st.kern.After(s.service, in)
}

// RunEvent is the function's event: the body, then exactly what a
// shipped function's proc does after its body returns.
func (in *inlined) RunEvent() {
	if in.dead {
		panic("caf: inline shipped function's record used after its event")
	}
	img, s := &in.img, in.s
	m := img.m
	if s.service > 0 {
		m.path.Claim(img.pctx, path.HandlerService, img.Now())
	}
	exec := "spawn-exec"
	if nc := s.named; nc != nil {
		rf := nc.fn
		args, err := decodeArgs(nc.blob)
		if err != nil {
			panic(fmt.Sprintf("caf: cannot unmarshal arguments of %q: %v", rf.name, err))
		}
		exec = rf.exec
		rf.fn(img, args)
	} else {
		s.fn(img)
	}
	img.traceSpan(exec, "ship", in.start)
	img.ct.Flush()
	m.opStageAt(&s.op, img.Rank(), trace.StageGlobal)
	m.spawnJoin(img, s.event, s.finishID, in.d)

	if in.ct.Pending() > 0 {
		// An operation the function started and did not fence still points
		// at the tracker: the record stays its own, like a shipped one.
		return
	}
	*in = inlined{}
	in.dead = m.inlines.Put(in)
}
