//go:build go1.23

// The only file that names package iter. The module's go directive stays
// at 1.22 (see DESIGN.md, "The coroutine pool"); the build line above is
// what gives this one file the go1.23 language version iter.Pull needs.

package sim

import (
	"fmt"
	"iter"
)

// coro is a goroutine that runs proc bodies, one tenant after another,
// and is switched with the engine by the runtime's coroutine hand-off
// (iter.Pull): next resumes it, yield gives control back, stop makes a
// pending yield return false. Neither side visits the scheduler's run
// queue or wakes an OS thread. A coro belongs to its engine and, like
// every other engine field, is touched only on the admission strand.
//
// The tenant is the proc the engine resumes (Engine.current) when the
// coroutine first runs after its lease, so the coro does not name it.
type coro struct {
	eng *Engine

	// waker runs at the tenant's wake-ups while it waits in WaitWith. It
	// is kept here rather than on the Proc because only a proc whose body
	// runs can wait, and the field would move every Proc a size class up.
	waker Waker

	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// lease hands a proc's body a coroutine: the most recently idled one,
// whose stack is still warm, or a new goroutine when none is idle.
func (e *Engine) lease() *coro {
	var c *coro
	if n := len(e.idle); n > 0 {
		c = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		c = &coro{eng: e}
		c.next, c.stop = iter.Pull(c.loop)
	}
	return c
}

// releaseIdle ends every idle coroutine's goroutine. Each stop returns
// only after the goroutine has exited.
func (e *Engine) releaseIdle() {
	for i, c := range e.idle {
		c.stop()
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}

// loop is the coroutine's goroutine: run the tenant, go idle, wait for
// the next lease. It returns when stop was called, either on a tenant
// (whose body then unwound with procAbort) or while idle.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for !c.runTenant() {
		c.eng.idle = appendDoubling(c.eng.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// runTenant runs the tenant's body to its end and retires the proc. A
// body's panic is kept for Run to return and never leaves next; the
// goroutine itself is unharmed and is let again. Only a stop, which
// unwinds the body with procAbort, makes it report true.
// runtime.Goexit in a body retires the proc here too, then goes on to
// end the goroutine, and iter.Pull repeats it in the caller of Run.
func (c *coro) runTenant() (stopped bool) {
	e := c.eng
	p := e.current
	defer func() {
		r := recover()
		if _, aborted := r.(procAbort); aborted {
			stopped = true
		} else if r != nil && e.procErr == nil {
			e.procErr = fmt.Errorf("sim: proc %q panicked: %v", p.Name(), r)
		}
		p.state = procDone
		p.co, p.body = nil, nil
		e.live--
	}()
	p.body.Run(p)
	return false
}
