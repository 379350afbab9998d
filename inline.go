package caf

import (
	"fmt"
	"reflect"
	"runtime"

	"caf2go/internal/path"
	"caf2go/internal/sim"
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
	Fn string // a closure's symbol, a record's type
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

// execName names the function: a closure's symbol, a record's type. A
// kept Image no longer has its spawn.
func (s *spawnOp) execName() string {
	if s == nil {
		return "(returned)"
	}
	r := s.sx
	if x := s.x(); x != nil {
		r = x.r
	}
	if fn, ok := r.(SpawnFn); ok {
		return runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
	}
	return reflect.TypeOf(r).String()
}

// RunEvent is an Inline function's event, service after its delivery:
// the function and its exit, then its record goes back to the pool.
func (sh *shipped) RunEvent() {
	img, s := &sh.img, sh.s
	m := img.m
	if s.service > 0 {
		m.path.Claim(img.pctx, path.HandlerService, img.Now())
	}
	sh.exec(img.Now() - s.service)
	if sh.ct.Pending() > 0 {
		// An operation the function started and did not fence still points
		// at the tracker: the record stays its own, like a proc's.
		return
	}
	// Zeroed, a record quarantined by Put panics on any further use.
	*sh = shipped{}
	m.inlines.Put(sh)
}
