package core

// Tests of the finish plane's tracking context as a value (rt.Track): what
// each Tracker step stamps and reads, that the credits of one message land
// in the epochs that counted it, and that the resilient reconciliation is
// keyed on the endpoints rt hands in. Named Pool… so the race pass
// over the message path's tests (make ci) runs them too.

import (
	"testing"

	"caf2go/internal/fabric"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
)

// One message by hand through all five Tracker steps.
func TestPoolTrackRoundTrip(t *testing.T) {
	m := newMachine(t, 2, 1, Config{WaitQuiescent: true})
	src, dst := m.k.Image(0), m.k.Image(1)
	const id = int64(7)
	ss, ds := m.pl.state(0, id), m.pl.state(1, id)

	sent := m.pl.OnSend(src, id)
	if want := (Ref{ID: id, SBox: &ss.even}); sent != want {
		t.Fatalf("OnSend stamped %+v, want %+v", sent, want)
	}
	if !sent.Tracked() || (Ref{}).Tracked() {
		t.Fatal("Tracked() must hold for a finish id and fail for the zero context")
	}
	if ss.even.sent != 1 || ss.tSent != 1 {
		t.Fatalf("send not counted on the sender: %+v", ss.even.epoch)
	}

	// An odd-parity message moves the receiver into its odd epoch and is
	// counted there; the box OnReceive returns remembers which one it was.
	sent.ParityOdd = true
	rbox := m.pl.OnReceive(dst, sent)
	if !ds.presentOdd || ds.odd == nil || ds.odd.received != 1 {
		t.Fatalf("odd message not received in the odd epoch: %+v", ds.odd)
	}
	if rbox != rt.TrackBox(ds.odd) {
		t.Fatalf("OnReceive returned %v, want the odd epoch", rbox)
	}

	m.pl.OnComplete(dst, 0, sent, rbox)
	if ds.odd.completed != 1 || !ds.odd.quiescent() {
		t.Errorf("completion not credited to the receiving epoch: %+v", ds.odd.epoch)
	}
	m.pl.OnAck(src, 1, sent)
	if ss.even.delivered != 1 || !ss.even.quiescent() {
		t.Errorf("ack not credited to the sending epoch: %+v", ss.even.epoch)
	}

	// A second send that the fabric gives up on: delivered locally, and
	// the remote half charged off as a virtual pair.
	lost := m.pl.OnSend(src, id)
	m.pl.OnAbandoned(src, lost)
	if ss.even.sent != 2 || ss.even.delivered != 2 || ss.adjCompleted != 1 || ss.lost != 1 {
		t.Errorf("abandoned send: epoch %+v, adjCompleted %d, lost %d", ss.even.epoch, ss.adjCompleted, ss.lost)
	}
	if st := m.pl.Stats(); st.TrackedSends != 2 || st.TrackedArrives != 1 || st.LostActivities != 1 {
		t.Errorf("plane stats = %+v", st)
	}
}

// The same steps driven by rt: the context a handler sees is the stamped
// one, by value, and nothing of it is left behind on the pooled records.
// The receiver's box stays on the Delivery; the counters say where each
// completion landed.
func TestPoolTrackTravelsByValue(t *testing.T) {
	m := newMachine(t, 2, 1, Config{WaitQuiescent: true})
	const tag uint16 = 201
	var seen []Ref
	m.k.RegisterHandler(tag, func(d *rt.Delivery) { seen = append(seen, d.Track()) })
	const id = int64(11)
	for i := 0; i < 3; i++ {
		m.k.Image(0).Send(1, tag, nil, rt.SendOpts{Finish: id, Class: fabric.AMShort, Bytes: 8})
		m.k.Image(0).Send(1, tag, nil, rt.SendOpts{Class: fabric.AMShort, Bytes: 8})
	}
	if err := m.eng.Run(); err != nil {
		t.Fatal(err)
	}
	ss, ds := m.pl.state(0, id), m.pl.state(1, id)
	want := Ref{ID: id, SBox: &ss.even}
	for i, got := range seen {
		if tracked := i%2 == 0; tracked && got != want {
			t.Errorf("delivery %d saw %+v, want %+v", i, got, want)
		} else if !tracked && got != (Ref{}) {
			t.Errorf("untracked delivery %d saw %+v (left over from the record's last use?)", i, got)
		}
	}
	if len(seen) != 6 || ss.even.sent != 3 || ss.even.delivered != 3 || ds.even.received != 3 || ds.even.completed != 3 {
		t.Errorf("%d deliveries; sender %+v, receiver %+v", len(seen), ss.even.epoch, ds.even.epoch)
	}
}

// Resilient finish: the mirror tallies a death consumes are keyed on the
// peer ranks rt hands to OnComplete and OnAck, and a credit that arrives
// after its peer was charged off is applied on the spot.
func TestPoolTrackChargeOffKeyedOnEndpoints(t *testing.T) {
	m, _ := resilientMachine(t, 3, 1, fabric.DefaultConfig(), 10*sim.Microsecond)
	const id = int64(5)
	img0, img1 := m.k.Image(0), m.k.Image(1)
	s0, s1 := m.pl.state(0, id), m.pl.state(1, id)

	// 0 → 2 acked twice, 0 → 1 acked once; 2 → 1 completed once.
	for _, dst := range []int{2, 2, 1} {
		m.pl.OnAck(img0, dst, m.pl.OnSend(img0, id))
	}
	from2 := Ref{ID: id, SBox: &m.pl.state(2, id).even}
	m.pl.OnComplete(img1, 2, from2, m.pl.OnReceive(img1, from2))
	if s0.ackedTo[2] != 2 || s0.ackedTo[1] != 1 || s1.completedFrom[2] != 1 {
		t.Fatalf("mirror tallies: ackedTo %v, completedFrom %v", s0.ackedTo, s1.completedFrom)
	}

	m.pl.OnDeath(2)
	if s0.adjCompleted != 2 || s0.lost != 2 || s0.ackedTo[1] != 1 || len(s0.ackedTo) != 1 {
		t.Errorf("image 0 after image 2's death: adjCompleted %d, lost %d, ackedTo %v", s0.adjCompleted, s0.lost, s0.ackedTo)
	}
	if s1.adjSent != 1 || len(s1.completedFrom) != 0 {
		t.Errorf("image 1 after image 2's death: adjSent %d, completedFrom %v", s1.adjSent, s1.completedFrom)
	}

	// Late credits for the dead peer skip the tallies.
	m.pl.OnAck(img0, 2, m.pl.OnSend(img0, id))
	m.pl.OnComplete(img1, 2, from2, m.pl.OnReceive(img1, from2))
	if s0.adjCompleted != 3 || s0.lost != 3 || s1.adjSent != 2 || len(s0.ackedTo) != 1 || len(s1.completedFrom) != 0 {
		t.Errorf("late credits: image 0 adjCompleted %d lost %d ackedTo %v; image 1 adjSent %d completedFrom %v",
			s0.adjCompleted, s0.lost, s0.ackedTo, s1.adjSent, s1.completedFrom)
	}
}

// initRecord is an operation that brings its own PendingOp and is its own
// initiator, the way caf's spawn and copy records are.
type initRecord struct {
	pend      PendingOp
	initiated int
}

func (r *initRecord) Initiate() { r.initiated++ }

// RegisterOp on a tracker held by value: same fence behaviour as Register,
// no allocation while the operations outstanding fit the inline array.
func TestPoolCofenceRegisterOpInPlace(t *testing.T) {
	var ct CofenceTracker
	ct.Init(true, 1)
	a, b := new(initRecord), new(initRecord)
	ct.RegisterOp(&a.pend, OpReads, a)
	if a.initiated != 0 || ct.Delayed() != 1 || ct.Pending() != 1 {
		t.Fatalf("relaxed tracker initiated %d, delays %d, pends %d", a.initiated, ct.Delayed(), ct.Pending())
	}
	ct.RegisterOp(&b.pend, OpWrites, b) // over the cap: both go
	if a.initiated != 1 || b.initiated != 1 || ct.Delayed() != 0 {
		t.Fatalf("flush at the cap initiated %d/%d, %d still delayed", a.initiated, b.initiated, ct.Delayed())
	}
	if a.pend.Class() != OpReads || b.pend.Class() != OpWrites {
		t.Errorf("classes %v, %v", a.pend.Class(), b.pend.Class())
	}
	a.pend.CompleteLocalData()
	b.pend.CompleteLocalData()
	if ct.Pending() != 0 {
		t.Errorf("%d ops pending after both completed", ct.Pending())
	}
	if sim.GoRace {
		return
	}
	ct.Init(false, 0)
	if n := testing.AllocsPerRun(100, func() {
		ct.RegisterOp(&a.pend, OpReads, a)
		ct.RegisterOp(&b.pend, OpReads, b)
		a.pend.CompleteLocalData()
		b.pend.CompleteLocalData()
	}); n != 0 {
		t.Errorf("allocations per two in-place registrations = %v, want 0", n)
	}
}
