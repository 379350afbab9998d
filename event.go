package caf

import (
	"fmt"
	"slices"

	"caf2go/internal/fabric"
	"caf2go/internal/failure"
	"caf2go/internal/race"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/trace"
)

// Event is a CAF 2.0 event variable: a counting synchronization object
// hosted on one image (§II-B). Events manage explicit completion of
// asynchronous operations — passed as copy/collective/spawn parameters
// they are notified at the operation's completion points — and support
// direct pair-wise coordination via EventNotify / EventWait.
//
// EventNotify has release semantics: it is not observed by a waiter until
// the notifier's prior implicitly-synchronized remote writes have been
// delivered, but operations after the notify may start before it.
// EventWait has acquire semantics: it blocks the calling proc until a
// notification arrives and orders subsequent operations after it.
type Event struct {
	owner int // world rank hosting the state
	id    int
	m     *Machine
}

// eventState lives on the owner image.
type eventState struct {
	count   int64
	waiters []*sim.Proc

	// preds are the copies waiting on the event as their predicate, in
	// arrival order; each consumes one post (whenPosted). A consumed
	// slot is shifted out and nil'd, so the backing array is kept for
	// the next waiting copy and holds none it has let go.
	preds []copyHop

	// rclk accumulates the release clocks of all notifies when the race
	// detector runs. A consumer acquires the whole accumulation — the
	// counting-semaphore approximation: it may be ordered after more
	// notifies than the one it consumed, which only hides races, never
	// invents them.
	rclk race.Clock

	det *failure.Detector // a declared death also ends a wait
}

// Wake is what a proc waits on in EventWait: a post, or a declared death.
func (es *eventState) Wake() (string, bool) { return "event wait", es.count == 0 && !es.det.AnyDead() }

// Owner returns the world rank hosting the event.
func (e *Event) Owner() int { return e.owner }

func (e *Event) String() string {
	return fmt.Sprintf("event(%d@%d)", e.id, e.owner)
}

// NewEvent allocates an event hosted on the calling image. The returned
// handle may be shared with other images (through coarrays or spawn
// arguments) and notified remotely.
func (img *Image) NewEvent() *Event {
	st := img.st
	st.events = append(st.events, &eventState{det: img.m.det})
	return &Event{owner: img.Rank(), id: len(st.events) - 1, m: img.m}
}

func (m *Machine) eventState(e *Event) *eventState {
	return m.states[e.owner].events[e.id]
}

// post increments the event on its owner image and wakes waiters. Must
// run "on" the owner (i.e. from a delivery or local call).
func (m *Machine) post(e *Event) {
	es := m.eventState(e)
	es.count++
	for es.count > 0 && len(es.preds) > 0 {
		c := es.preds[0]
		n := copy(es.preds, es.preds[1:])
		es.preds[n] = nil
		es.preds = es.preds[:n]
		es.count--
		c.predPosted(m.eventClock(e))
	}
	// A waiting copy has priority over blocked waiters and may have
	// consumed the post just delivered; unparking waiters then would be
	// spurious — they would re-evaluate count == 0 and park again,
	// burning simulator events.
	if es.count > 0 {
		for _, w := range es.waiters {
			w.Unpark()
		}
	}
}

// whenPosted lets c, a copy gated on e, consume a post of e on e's
// owner: now if one is available, else after the copies already waiting
// there.
func (m *Machine) whenPosted(e *Event, c copyHop) {
	es := m.eventState(e)
	if es.count > 0 {
		es.count--
		c.predPosted(m.eventClock(e))
		return
	}
	es.preds = append(es.preds, c)
}

// eventClock copies the event's accumulated release clock.
func (m *Machine) eventClock(e *Event) race.Clock {
	if m.race == nil {
		return nil
	}
	return race.CopyClock(m.eventState(e).rclk)
}

// eventNotifyMsg carries a notification and its release clock.
type eventNotifyMsg struct {
	e   *Event
	clk race.Clock
	op  *Op // completion handle of the notify (nil = internal signal)
}

// notifyFrom delivers one post of an internal signal (a copy's source or
// destination event, a spawn's or a collective's) to e with the given
// release clock (nil when the race detector is off), sending an active
// message when the signal originates on a different image than the
// owner.
func (m *Machine) notifyFrom(fromRank int, e *Event, clk race.Clock) {
	if e.owner == fromRank {
		m.landNotify(fromRank, &eventNotifyMsg{e: e, clk: clk})
		return
	}
	m.sendNotify(fromRank, &eventNotifyMsg{e: e, clk: clk})
}

// sendNotify sends msg from image from to its event's owner. Notifies
// release waiters parked on the owner: never coalesce them.
func (m *Machine) sendNotify(from int, msg *eventNotifyMsg) {
	m.states[from].kern.Send(msg.e.owner, tagEventNotify, msg, rt.SendOpts{
		Class:      fabric.AMShort,
		Bytes:      16,
		NoCoalesce: true,
	})
}

// landNotify posts msg's event on its owner, rank: the notify's release
// clock joins the event's accumulation, and its completion handle (nil
// for an internal signal) completes globally, since the post is visible.
func (m *Machine) landNotify(rank int, msg *eventNotifyMsg) {
	if m.race != nil && msg.clk != nil {
		es := m.eventState(msg.e)
		es.rclk = race.Join(es.rclk, msg.clk)
	}
	m.opAdvance(msg.op, rank, trace.StageGlobal)
	m.post(msg.e)
}

// notifyOp is the one record of an EventNotify: its completion handle,
// its wire payload (whose op is the handle, and whose clock is the
// release clock) and its release wait, a countdown of the remote updates
// outstanding on its image when it was called. Like copyOp it is owned,
// not pooled: the caller may keep &n.op.
//
// An image's waiting notifies form a chain in notify order (next). A
// delivery token is in every wait from its first one to the last made
// before it completed, so a completing token counts down the chain from
// its first wait up to the image's last (delivToken.complete). Nothing
// walks a released notify again, so it lets go of the later ones.
type notifyOp struct {
	op   Op
	msg  eventNotifyMsg
	left int // outstanding updates still awaited
	next *notifyOp
}

// release runs when every update the notify waits for has been
// delivered and nothing more is pending locally: the post goes to the
// event's owner.
func (n *notifyOp) release() {
	m, from := n.op.m, n.op.Initiator()
	m.opAdvance(&n.op, from, trace.StageLocalData)
	m.opAdvance(&n.op, from, trace.StageLocalOp)
	if n.msg.e.owner == from {
		m.landNotify(from, &n.msg)
		return
	}
	m.sendNotify(from, &n.msg)
}

// EventNotify posts the event with release semantics: the notification is
// deferred until every implicitly-synchronized operation this image
// initiated earlier has been delivered (so a waiter observes their
// effects), but this call itself returns immediately — later operations
// may proceed before the notify lands (§III-B4a).
//
// The returned Op is the notify's completion handle: local levels fire
// when the release precondition holds (prior updates delivered), global
// completion when the post is visible on the owner.
func (img *Image) EventNotify(e *Event) *Op {
	// Release boundary: deferred initiations must actually start, and
	// buffered coalesced messages must be on the wire before the notify —
	// a waiter must observe their effects.
	img.syncPoint(AllowNone)
	n := &notifyOp{}
	img.opInit(&n.op, "notify", e.owner)
	img.opStage(&n.op, trace.StageInit)
	// Release clock: the notifier's clock at the notify, joined with the
	// clocks of the outstanding remote updates the notify waits on — a
	// waiter is ordered after those updates' writes too.
	n.msg = eventNotifyMsg{e: e, clk: img.raceRelease(), op: &n.op}
	img.m.afterOutstandingDeliveries(img.st, n)
	return &n.op
}

// EventWait blocks until a notification is available and consumes it
// (acquire semantics, §III-B4b). The event must be hosted on the calling
// image: waiting on a remote image's event state is not meaningful in
// CAF 2.0 — share a local event instead.
func (img *Image) EventWait(e *Event) {
	if e.owner != img.Rank() {
		panic(fmt.Sprintf("caf: image %d waiting on %v hosted elsewhere", img.Rank(), e))
	}
	p := img.parker("EventWait")
	// Acquire is a synchronization point for deferred initiations and
	// for this image's coalescing buffers.
	img.syncPoint(AllowNone)
	start := img.Now()
	btok := img.beginBlock("event_wait")
	es := img.m.eventState(e)
	es.waiters = append(es.waiters, p)
	p.WaitWith(es)
	img.endBlock(btok)
	img.traceSpan("event_wait", "sync", start)
	es.waiters = slices.DeleteFunc(es.waiters, func(w *sim.Proc) bool { return w == p })
	if es.count == 0 {
		// Woken by a failure declaration, not a notification: the post
		// this image is waiting for may be lost with the dead image.
		// Fail-stop rather than block forever. (WaitWith tests the wait
		// condition before it parks, so a declaration racing this image
		// between enqueue and park is seen, never lost.)
		panic(failure.Abort{Err: es.det.ErrFor("event wait")})
	}
	es.count--
	// Acquire: subsequent operations are ordered after the notifies.
	img.raceAcquire(es.rclk)
}

// EventTryWait consumes a notification if one is available.
func (img *Image) EventTryWait(e *Event) bool {
	if e.owner != img.Rank() {
		panic(fmt.Sprintf("caf: image %d trying %v hosted elsewhere", img.Rank(), e))
	}
	es := img.m.eventState(e)
	if es.count > 0 {
		es.count--
		img.raceAcquire(es.rclk)
		return true
	}
	return false
}

// EventCount reports the pending notification count (local events only).
func (img *Image) EventCount(e *Event) int64 {
	if e.owner != img.Rank() {
		panic(fmt.Sprintf("caf: image %d reading %v hosted elsewhere", img.Rank(), e))
	}
	return img.m.eventState(e).count
}
