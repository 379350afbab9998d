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
	// later one on its image waits on it too (see notifyOp). nil until a
	// notify finds the token outstanding.
	first *notifyOp
	clk   *race.Clock
	st    *imageState // the image whose list the token is on; nil once off
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
	// notify made while a released one runs does not wait on it.
	end := st.lastWait
	for {
		next := w.next
		if w.left--; w.left == 0 {
			w.next = nil
			if st.lastWait == w {
				st.lastWait = nil // nothing outstanding is left to chain to it
			}
			w.release()
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

// afterOutstandingDeliveries releases n once every remote update
// outstanding at call time has been delivered, with the clocks of those
// updates joined into its release clock. Updates issued later do not
// delay it — exactly the porousness EventNotify needs.
func (m *Machine) afterOutstandingDeliveries(st *imageState, n *notifyOp) {
	waitFor := st.pendingDeliv
	if len(waitFor) == 0 {
		n.release()
		return
	}
	n.left = len(waitFor)
	for _, t := range waitFor {
		n.msg.clk = race.Join(n.msg.clk, t.clock())
		if t.first == nil {
			t.first = n
		}
	}
	if st.lastWait != nil {
		st.lastWait.next = n
	}
	st.lastWait = n
}
