package core

// Tests of who wakes a parked waiter, and when: the finish plane's tracker
// callbacks and the cofence tracker's completion path test the waiter's
// own condition and schedule a wake-up only when it holds (DESIGN §4.15).
// Wake-ups are counted as engine events: between two probe events the
// only other events are the hand-driven tracker callbacks, so any surplus
// in Engine.EventsRun is a resumption of the waiter.

import (
	"testing"

	"caf2go/internal/failure"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/team"
)

const us = sim.Microsecond

// selfSend is one tracked self-send as the tracker stamped it: the
// message's context and the receiving epoch.
type selfSend struct {
	ref  Ref
	rbox rt.TrackBox
}

func (s selfSend) complete(m *machine) { m.pl.OnComplete(m.k.Image(0), 0, s.ref, s.rbox) }
func (s selfSend) ack(m *machine)      { m.pl.OnAck(m.k.Image(0), 0, s.ref) }

// soloFinish starts image 0's main on a finish over a team of its own,
// with n tracked self-sends counted as sent and received before End parks.
// The caller drives their completions and acks by hand through refs.
func soloFinish(m *machine, n int, ended *sim.Time) (refs []selfSend) {
	img := m.k.Image(0)
	refs = make([]selfSend, n)
	img.Go("main", func(p *sim.Proc) {
		st := m.pl.Begin(img, team.New(77, []int{0}))
		for i := range refs {
			ref := m.pl.OnSend(img, st.Ref().ID)
			refs[i] = selfSend{ref, m.pl.OnReceive(img, ref)}
		}
		m.pl.End(p, img, st)
		*ended = p.Now()
	})
	return refs
}

// eventsBetween runs the engine and returns how many events ran after the
// probe at time a, up to and including the probe at time b.
func eventsBetween(t *testing.T, eng *sim.Engine, a, b sim.Time) uint64 {
	t.Helper()
	var atA, atB uint64
	eng.At(a, func() { atA = eng.EventsRun() })
	eng.At(b, func() { atB = eng.EventsRun() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return atB - atA
}

// Fig. 7's wait: n completions and n acks arrive one event each, and only
// the last makes even.quiescent() true.
func TestFinishWaiterWokenOnceNotPerCredit(t *testing.T) {
	const n = 16
	m := newMachine(t, 1, 1, Config{WaitQuiescent: true})
	var ended sim.Time
	refs := soloFinish(m, n, &ended)
	for i := 0; i < n; i++ {
		i := i
		m.eng.At(sim.Time(1+i)*us, func() { refs[i].complete(m) })
		m.eng.At(sim.Time(1+n+i)*us, func() { refs[i].ack(m) })
	}
	// In the window: 2n-1 credits and the closing probe.
	if got := eventsBetween(t, m.eng, us/2, 2*n*us-us/2); got != 2*n {
		t.Errorf("%d events while %d credits arrived, want %d: the waiter was resumed %d times on a false condition",
			got, 2*n-1, 2*n, got-2*n)
	}
	if ended < 2*n*us {
		t.Errorf("finish ended at %v, before the last ack at %v", ended, sim.Time(2*n)*us)
	}
}

// The four-counter variant waits on tReceived == tCompleted only.
func TestFinishFourCounterWaiterWokenOnce(t *testing.T) {
	const n = 16
	m := newMachine(t, 1, 1, Config{WaitQuiescent: false})
	var ended sim.Time
	refs := soloFinish(m, n, &ended)
	for i := 0; i < n; i++ {
		i := i
		m.eng.At(sim.Time(1+i)*us, func() { refs[i].complete(m) })
		m.eng.At(sim.Time(1+n+i)*us, func() { refs[i].ack(m) })
	}
	if got := eventsBetween(t, m.eng, us/2, n*us-us/2); got != n {
		t.Errorf("%d events while %d completions arrived, want %d", got, n-1, n)
	}
	if ended < n*us {
		t.Errorf("finish ended at %v, before the last completion at %v", ended, sim.Time(n)*us)
	}
}

// soloResilient is a two-image machine whose image 1 crashes at 20us and
// is declared dead at `declared`; onDeath stands in for the machine's
// failure subscriber.
func soloResilient(t *testing.T, onDeath func(m *machine)) (m *machine, declared sim.Time) {
	t.Helper()
	m = newMachine(t, 2, 1, Config{WaitQuiescent: true})
	det := failure.New(m.eng, 2, failure.Config{Enabled: true, Heartbeat: 10 * us}, map[int]sim.Time{1: 20 * us})
	m.k.SetDetector(det)
	m.pl.SetDetector(det)
	det.Subscribe(func(int, sim.Time) { onDeath(m) })
	return m, det.DetectionTime(20 * us)
}

// A declared death reaches a loop parked on a false condition through
// OnDeath, which wakes without asking — here with no WakeAllParked behind
// it. The loop leaves for the degraded protocol, whose waits every tracker
// callback wakes, and ends with a typed error once the send is abandoned.
func TestFinishDeathWakesWaiterOnFalseCondition(t *testing.T) {
	var s *State
	var sent Ref
	var ferr *failure.ImageFailedError
	ended := sim.Time(-1)
	m, declared := soloResilient(t, func(m *machine) { m.pl.OnDeath(1) })
	img := m.k.Image(0)
	img.Go("main", func(p *sim.Proc) {
		s = m.pl.Begin(img, team.New(77, []int{0}))
		sent = m.pl.OnSend(img, s.Ref().ID) // in flight to image 1 for good
		_, ferr = m.pl.End(p, img, s)
		ended = p.Now()
	})
	m.eng.At(declared+us, func() {
		if s.pollRound == 0 {
			t.Errorf("at %v the loop is still parked on quiescence (waiter %v): OnDeath did not wake it", m.eng.Now(), s.waiter != nil)
		}
	})
	m.eng.At(declared+25*us, func() { m.pl.OnAbandoned(img, sent) })
	if err := m.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ended < declared+25*us || ferr == nil || ferr.Lost != 1 {
		t.Errorf("finish ended at %v with %v, want a typed error with one lost activity after %v", ended, ferr, declared+25*us)
	}
}

// AnyDead is part of the condition wake tests: a credit that leaves the
// counters unbalanced still resumes the loop once a death is declared,
// even if nothing else woke it.
func TestFinishWakeConditionIncludesDeath(t *testing.T) {
	var s *State
	var refs [2]Ref
	m, declared := soloResilient(t, func(m *machine) { m.pl.OnAbandoned(m.k.Image(0), refs[0]) })
	img := m.k.Image(0)
	img.Go("main", func(p *sim.Proc) {
		s = m.pl.Begin(img, team.New(77, []int{0}))
		for i := range refs {
			refs[i] = m.pl.OnSend(img, s.Ref().ID)
		}
		m.pl.End(p, img, s)
	})
	m.eng.At(declared+us, func() {
		if s.even.quiescent() {
			t.Fatal("test is void: one abandoned send of two balanced the epoch")
		}
		if s.pollRound == 0 {
			t.Error("the loop is still parked on quiescence after a credit under a declared death")
		}
		m.pl.OnAbandoned(img, refs[1])
	})
	if err := m.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// A fence over n pending operations is resumed by the completion that
// clears it, not by each of the n.
func TestCofenceWaiterWokenOnce(t *testing.T) {
	const n = 64
	eng := sim.NewEngine(1)
	ct := NewCofenceTracker(false, 0)
	ops := make([]*PendingOp, n)
	passed := sim.Time(-1)
	eng.Go("main", func(p *sim.Proc) {
		for i := range ops {
			ops[i] = ct.Register(OpReads, func() {})
		}
		ct.Cofence(p, AllowNone, AllowNone)
		passed = p.Now()
	})
	for i := 0; i < n; i++ {
		i := i
		eng.At(sim.Time(1+i)*us, func() { ops[i].CompleteLocalData() })
	}
	if got := eventsBetween(t, eng, us/2, n*us-us/2); got != n {
		t.Errorf("%d events while %d of %d operations completed, want %d", got, n-1, n, n)
	}
	if passed != n*us {
		t.Errorf("fence passed at %v, want %v", passed, sim.Time(n)*us)
	}
}

// Two fences on one tracker, the parked one and a continuation fence:
// each is woken by the completion that clears its own class.
func TestCofenceWaitersWokenByOwnClass(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewCofenceTracker(false, 0)
	var rd, wr *PendingOp
	full := firedAt{eng: eng}
	var writesPass sim.Time
	eng.Go("setup", func(p *sim.Proc) {
		rd = ct.Register(OpReads, func() {})
		wr = ct.Register(OpWrites, func() {})
		ct.CofenceOp(&full.f, AllowNone, &full)
		eng.Go("writes-pass", func(p *sim.Proc) { ct.Cofence(p, AllowWrite, AllowNone); writesPass = p.Now() })
	})
	eng.At(10*us, func() { rd.CompleteLocalData() })
	eng.At(30*us, func() { wr.CompleteLocalData() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if writesPass != 10*us || len(full.at) != 1 || full.at[0] != 30*us {
		t.Errorf("fences passed at %v (writes may pass) and %v (full), want 10us and [30us]", writesPass, full.at)
	}
}
