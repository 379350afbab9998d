package sim

// Timer is a cancellable, resettable virtual-time timer. The engine's At
// queue cannot unschedule events, so Timer layers a generation counter on
// top: Stop and Reset invalidate any event already queued, which then
// fires as a no-op. The fabric's ack-timeout retransmission machinery is
// the primary client.
//
// Like everything else in sim, a Timer must only be touched from inside
// the simulation (event callbacks or procs) — never concurrently.
type Timer struct {
	eng    *Engine
	fn     func()
	gen    uint64
	active bool
}

// NewTimer returns an unarmed timer that runs fn when it expires.
func (e *Engine) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil fn")
	}
	return &Timer{eng: e, fn: fn}
}

// Reset (re-)arms the timer to fire d from now, superseding any pending
// expiry. It is the only way to arm a Timer.
func (t *Timer) Reset(d Time) {
	t.gen++
	t.active = true
	if d < 0 {
		d = 0
	}
	x := t.eng.expiries.New()
	x.t, x.gen = t, t.gen
	t.eng.AtEvent(t.eng.now+d, x)
}

// expiry is one queued expiry of a Timer, the generation it was armed
// with, as its own event. Its event is its last reference: it is released
// to the engine's free list as it runs.
type expiry struct {
	t   *Timer
	gen uint64
}

func (x *expiry) RunEvent() {
	t, gen := x.t, x.gen
	*x = expiry{}
	t.eng.expiries.Put(x)
	if t.gen != gen || !t.active {
		return // stopped or re-armed since this expiry was queued
	}
	t.active = false
	t.fn()
}

// Stop disarms the timer. A pending expiry is discarded; fn does not run.
func (t *Timer) Stop() {
	t.gen++
	t.active = false
}

// Active reports whether an expiry is pending.
func (t *Timer) Active() bool { return t.active }
