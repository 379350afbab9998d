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
	g := t.gen
	t.active = true
	if d < 0 {
		d = 0
	}
	t.eng.At(t.eng.now+d, func() {
		if t.gen != g || !t.active {
			return // stopped or re-armed since this expiry was queued
		}
		t.active = false
		t.fn()
	})
}

// Stop disarms the timer. A pending expiry is discarded; fn does not run.
func (t *Timer) Stop() {
	t.gen++
	t.active = false
}

// Active reports whether an expiry is pending.
func (t *Timer) Active() bool { return t.active }
