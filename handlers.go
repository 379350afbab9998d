package caf

import (
	"caf2go/internal/race"
	"caf2go/internal/trace"
)

// Fabric tag allocation for the caf runtime layer. internal/collect owns
// tag 100; everything else lives here.
const (
	tagSpawn       uint16 = 300
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
// event notification. clk points at the clock covering the update's
// delivered effects (the op's write clock for a put, read clock for a get
// request, a spawn's fork clock; nil when the race detector is off), a
// field of the operation's record — an EventNotify waiting on the token
// releases it to waiters along with the notifier's own clock.
//
// A token is usually a field of its operation's record (spawnOp, copyOp)
// and sits on its image's pendingDeliv list from initiation until it
// completes, and no longer: the list must not pin a finished operation's
// record, and an image that never notifies must not keep every token it
// ever made. It is four words, done and at sharing one, since every
// spawn and copy record holds one.
type delivToken struct {
	done bool
	at   int32 // its index on st's list
	// first is the earliest EventNotify waiting on the token; every
	// later one on its image waits on it too (see deliveryWait). nil
	// until a notify finds the token outstanding.
	first *deliveryWait
	clk   *race.Clock
	st    *imageState // the image whose list the token is on; nil once off
}

// deliveryWait is one EventNotify waiting for the remote updates that
// were outstanding on its image when it was called: a countdown, one
// record per notify however many updates it waits for. An image's waits
// form a chain in notify order (next), and a token is in every wait from
// its first one to the last made before it completed, because each of
// those found it outstanding. A completing token therefore counts down
// the chain from its first wait, in notify order, up to the image's last
// wait at that moment.
type deliveryWait struct {
	remaining int
	clk       race.Clock // the join of the awaited updates' clocks
	fn        func(clk race.Clock)
	next      *deliveryWait
}

// clock is the clock the token covers, or nil.
func (t *delivToken) clock() race.Clock {
	if t.clk == nil {
		return nil
	}
	return *t.clk
}

func (t *delivToken) complete() {
	if t.done {
		return
	}
	t.done = true
	st := t.st
	if st != nil {
		// Leave the list: the last token takes the slot. Nothing reads
		// the list's order (an EventNotify waits for all of it).
		n := len(st.pendingDeliv) - 1
		last := st.pendingDeliv[n]
		st.pendingDeliv[t.at], last.at = last, t.at
		st.pendingDeliv[n] = nil
		st.pendingDeliv = st.pendingDeliv[:n]
		t.st = nil
	}
	w := t.first
	if w == nil {
		return
	}
	t.first = nil
	// The waits this token is in end at the image's last one now: a
	// notify that a released wait runs makes a wait without it.
	end := st.lastWait
	for {
		next := w.next
		w.remaining--
		if w.remaining == 0 {
			if st.lastWait == w {
				st.lastWait = nil // nothing outstanding is left to chain to it
			}
			w.fn(w.clk)
		}
		if w == end {
			return
		}
		w = next
	}
}

// addDelivToken registers t, an outstanding remote update, on the image.
func (st *imageState) addDelivToken(t *delivToken) {
	t.st, t.at = st, int32(len(st.pendingDeliv))
	st.pendingDeliv = append(st.pendingDeliv, t)
}

// opAbandoned is the OnAbandoned of a tracked one-way send (built only
// when a failure detector is attached; rt drops it otherwise): the op
// will never complete remotely, so its record is closed out and its
// token completed.
func (m *Machine) opAbandoned(o *Op, rank int, tok *delivToken) {
	m.opAdvance(o, rank, trace.StageLocalOp)
	m.opAdvance(o, rank, trace.StageGlobal)
	tok.complete()
}

// afterOutstandingDeliveries runs fn once every remote update outstanding
// at call time has been delivered, passing the join of those updates'
// clocks (nil when the race detector is off). Updates issued later do not
// delay fn — exactly the porousness EventNotify needs.
func (m *Machine) afterOutstandingDeliveries(st *imageState, fn func(clk race.Clock)) {
	waitFor := st.pendingDeliv
	if len(waitFor) == 0 {
		fn(nil)
		return
	}
	w := &deliveryWait{remaining: len(waitFor), fn: fn}
	for _, t := range waitFor {
		w.clk = race.Join(w.clk, t.clock())
		if t.first == nil {
			t.first = w
		}
	}
	if st.lastWait != nil {
		st.lastWait.next = w
	}
	st.lastWait = w
}
