package caf

import (
	"slices"

	"caf2go/internal/race"
	"caf2go/internal/trace"
)

// Fabric tag allocation for the caf runtime layer. internal/collect owns
// tag 100; everything else lives here.
const (
	tagSpawn       uint16 = 300
	tagSpawnNamed  uint16 = 301
	tagCopyPut     uint16 = 310
	tagCopyGetReq  uint16 = 311
	tagEventNotify uint16 = 313
	tagEventChain  uint16 = 314
	tagResume      uint16 = 315
	tagLock        uint16 = 320
	tagUnlock      uint16 = 321
	tagBlocking    uint16 = 330
)

// registerHandlers installs every caf AM handler on all images.
func (m *Machine) registerHandlers() {
	m.k.RegisterHandler(tagSpawn, m.handleSpawn)
	m.k.RegisterHandler(tagSpawnNamed, m.handleSpawnNamed)
	m.k.RegisterHandler(tagCopyPut, m.handleCopyPut)
	m.k.RegisterHandler(tagCopyGetReq, m.handleCopyGetReq)
	m.k.RegisterHandler(tagEventNotify, m.handleEventNotify)
	m.k.RegisterHandler(tagEventChain, m.handleEventChain)
	m.k.RegisterHandler(tagResume, m.handleResume)
	m.k.RegisterHandler(tagLock, m.handleLock)
	m.k.RegisterHandler(tagUnlock, m.handleUnlock)
	m.k.RegisterHandler(tagBlocking, m.handleBlocking)
}

// delivToken tracks one outstanding remote update for release-semantics
// event notification. clk is the clock covering the update's delivered
// effects (the op's write clock for a put, read clock for a get request;
// nil when the race detector is off) — an EventNotify waiting on the
// token releases it to waiters along with the notifier's own clock.
type delivToken struct {
	done bool
	cbs  []func()
	clk  race.Clock
}

func (t *delivToken) complete() {
	if t.done {
		return
	}
	t.done = true
	cbs := t.cbs
	t.cbs = nil
	for _, cb := range cbs {
		cb()
	}
}

// newDelivToken registers an outstanding remote update on the image.
// Only an EventNotify reads the list, and an image that never notifies
// must not keep every token it ever made: when the backing array is full,
// finished tokens are first compacted out in place, and the array grows
// only if that freed less than half of it (the sim.ProcList.Add rule), so
// the list follows the number of updates in flight.
func (st *imageState) newDelivToken(clk race.Clock) *delivToken {
	t := &delivToken{clk: clk}
	if n := len(st.pendingDeliv); n == cap(st.pendingDeliv) {
		st.pendingDeliv = slices.DeleteFunc(st.pendingDeliv, (*delivToken).finished)
		if len(st.pendingDeliv) > n/2 {
			st.pendingDeliv = slices.Grow(st.pendingDeliv, n)
		}
	}
	st.pendingDeliv = append(st.pendingDeliv, t)
	return t
}

func (t *delivToken) finished() bool { return t.done }

// opAbandoned is the OnAbandoned of a tracked one-way send (built only
// when a failure detector is attached; rt drops it otherwise): the op
// will never complete remotely, so its record is closed out and its
// token completed.
func (m *Machine) opAbandoned(o *Op, rank int, tok *delivToken) {
	m.opStageAt(o, rank, trace.StageLocalOp)
	m.opStageAt(o, rank, trace.StageGlobal)
	tok.complete()
}

// afterOutstandingDeliveries runs fn once every remote update outstanding
// at call time has been delivered, passing the join of those updates'
// clocks (nil when the race detector is off). Updates issued later do not
// delay fn — exactly the porousness EventNotify needs.
func (m *Machine) afterOutstandingDeliveries(st *imageState, fn func(clk race.Clock)) {
	// Prune finished tokens while collecting the live ones.
	live := st.pendingDeliv[:0]
	var waitFor []*delivToken
	var clk race.Clock
	for _, t := range st.pendingDeliv {
		if !t.done {
			live = append(live, t)
			waitFor = append(waitFor, t)
			clk = race.Join(clk, t.clk)
		}
	}
	for i := len(live); i < len(st.pendingDeliv); i++ {
		st.pendingDeliv[i] = nil
	}
	st.pendingDeliv = live
	if len(waitFor) == 0 {
		fn(nil)
		return
	}
	remaining := len(waitFor)
	for _, t := range waitFor {
		t.cbs = append(t.cbs, func() {
			remaining--
			if remaining == 0 {
				fn(clk)
			}
		})
	}
}
