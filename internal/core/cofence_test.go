package core

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"caf2go/internal/sim"
)

func TestPassesTruthTable(t *testing.T) {
	cases := []struct {
		class OpClass
		allow Allow
		want  bool
	}{
		{OpReads, AllowNone, false},
		{OpWrites, AllowNone, false},
		{OpReads | OpWrites, AllowNone, false},
		{OpReads, AllowRead, true},
		{OpWrites, AllowRead, false},
		{OpReads | OpWrites, AllowRead, false}, // §III-B: mixed op can't cross a single-class fence
		{OpReads, AllowWrite, false},
		{OpWrites, AllowWrite, true},
		{OpReads | OpWrites, AllowWrite, false},
		{OpReads, AllowAny, true},
		{OpWrites, AllowAny, true},
		{OpReads | OpWrites, AllowAny, true},
		{0, AllowNone, true}, // op touching no local data crosses anything
	}
	for _, c := range cases {
		if got := passes(c.class, c.allow); got != c.want {
			t.Errorf("passes(%v, %v) = %v, want %v", c.class, c.allow, got, c.want)
		}
	}
}

func TestClassAndAllowStrings(t *testing.T) {
	if OpReads.String() != "read" || OpWrites.String() != "write" ||
		(OpReads|OpWrites).String() != "read|write" || OpClass(0).String() != "none" {
		t.Error("OpClass strings wrong")
	}
	if AllowNone.String() != "none" || AllowAny.String() != "any" ||
		AllowRead.String() != "read" || AllowWrite.String() != "write" {
		t.Error("Allow strings wrong")
	}
}

func TestCofenceBlocksUntilLocalData(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewCofenceTracker(false, 0)
	var doneAt sim.Time
	var op *PendingOp
	eng.Go("main", func(p *sim.Proc) {
		op = ct.Register(OpReads, func() {})
		ct.Cofence(p, AllowNone, AllowNone)
		doneAt = p.Now()
	})
	eng.At(50*sim.Microsecond, func() { op.CompleteLocalData() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 50*sim.Microsecond {
		t.Errorf("cofence returned at %v, want 50us", doneAt)
	}
	if ct.Pending() != 0 {
		t.Errorf("pending = %d after completion", ct.Pending())
	}
}

func TestCofenceDownwardLetsClassPass(t *testing.T) {
	// cofence(DOWNWARD=WRITE): a pending op that only writes local data
	// may complete after the fence — the fence must not wait for it.
	eng := sim.NewEngine(1)
	ct := NewCofenceTracker(false, 0)
	var fenceAt sim.Time
	eng.Go("main", func(p *sim.Proc) {
		readOp := ct.Register(OpReads, func() {})
		ct.Register(OpWrites, func() {}) // never completed in this test
		eng.At(10*sim.Microsecond, func() { readOp.CompleteLocalData() })
		ct.Cofence(p, AllowWrite, AllowNone)
		fenceAt = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fenceAt != 10*sim.Microsecond {
		t.Errorf("fence at %v: should wait only for the read op", fenceAt)
	}
	if ct.Pending() != 1 {
		t.Errorf("pending = %d, the write op should survive the fence", ct.Pending())
	}
}

func TestCofenceMixedOpBlockedBySingleClassFence(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewCofenceTracker(false, 0)
	var fenceAt sim.Time
	eng.Go("main", func(p *sim.Proc) {
		mixed := ct.Register(OpReads|OpWrites, func() {})
		eng.At(30*sim.Microsecond, func() { mixed.CompleteLocalData() })
		ct.Cofence(p, AllowRead, AllowNone) // read-only passage: mixed op must block
		fenceAt = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fenceAt != 30*sim.Microsecond {
		t.Errorf("fence at %v, want 30us (mixed op must not pass)", fenceAt)
	}
}

func TestCofenceAllowAnyIsNoop(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewCofenceTracker(false, 0)
	returned := false
	eng.Go("main", func(p *sim.Proc) {
		ct.Register(OpReads, func() {})
		ct.Register(OpWrites, func() {})
		ct.Cofence(p, AllowAny, AllowAny)
		returned = true
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !returned {
		t.Fatal("cofence(ANY, ANY) blocked")
	}
}

func TestEagerModeInitiatesImmediately(t *testing.T) {
	ct := NewCofenceTracker(false, 0)
	ran := false
	ct.Register(OpReads, func() { ran = true })
	if !ran {
		t.Fatal("eager mode did not initiate")
	}
	if ct.Delayed() != 0 {
		t.Fatal("eager mode buffered")
	}
}

func TestRelaxedModeBuffersAndFlushes(t *testing.T) {
	ct := NewCofenceTracker(true, 8)
	order := []int{}
	for i := 0; i < 3; i++ {
		i := i
		ct.Register(OpReads, func() { order = append(order, i) })
	}
	if len(order) != 0 || ct.Delayed() != 3 {
		t.Fatalf("relaxed mode initiated early: order=%v delayed=%d", order, ct.Delayed())
	}
	ct.Flush(AllowNone)
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Fatalf("flush order = %v, want FIFO", order)
	}
}

func TestRelaxedModeCapTriggersFlush(t *testing.T) {
	ct := NewCofenceTracker(true, 2)
	count := 0
	for i := 0; i < 5; i++ {
		ct.Register(OpWrites, func() { count++ })
	}
	// Cap is 2: pushing a 3rd buffers then flushes all; by op 5 at least
	// the first batch has initiated.
	if count == 0 {
		t.Fatal("cap never triggered a flush")
	}
	ct.Flush(AllowNone)
	if count != 5 {
		t.Fatalf("after flush count = %d, want 5", count)
	}
}

func TestCofenceFlushRespectsDownwardClass(t *testing.T) {
	// A fence letting WRITE pass must leave buffered write-initiations
	// deferred but force read-initiations.
	eng := sim.NewEngine(1)
	ct := NewCofenceTracker(true, 10)
	readStarted, writeStarted := false, false
	eng.Go("main", func(p *sim.Proc) {
		rop := ct.Register(OpReads, func() {
			readStarted = true
		})
		ct.Register(OpWrites, func() { writeStarted = true })
		// Complete the read op as soon as it initiates so the fence can
		// retire.
		eng.At(1, func() {
			if readStarted {
				rop.CompleteLocalData()
			}
		})
		ct.Cofence(p, AllowWrite, AllowNone)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !readStarted {
		t.Error("read op not initiated by fence")
	}
	if writeStarted {
		t.Error("write op initiated although it may defer past the fence")
	}
	if ct.Delayed() != 1 {
		t.Errorf("delayed = %d, want 1", ct.Delayed())
	}
}

func TestCompleteLocalDataIdempotent(t *testing.T) {
	ct := NewCofenceTracker(false, 0)
	op := ct.Register(OpReads, func() {})
	op.CompleteLocalData()
	op.CompleteLocalData() // must not panic or corrupt
	if ct.Pending() != 0 {
		t.Error("pending after double complete")
	}
	if !op.LocalDataDone() || op.Class() != OpReads {
		t.Error("op accessors wrong")
	}
}

func TestMultipleWaitersAllWake(t *testing.T) {
	// The parked fence and every continuation fence on one tracker wake
	// at the completion they wait for.
	eng := sim.NewEngine(1)
	ct := NewCofenceTracker(false, 0)
	op := ct.Register(OpWrites, func() {})
	var fs [2]firedAt
	for i := range fs {
		fs[i].eng = eng
		ct.CofenceOp(&fs[i].f, AllowNone, &fs[i])
	}
	parked := false
	eng.Go("w", func(p *sim.Proc) {
		ct.Cofence(p, AllowNone, AllowNone)
		parked = p.Now() == 5
	})
	eng.At(5, func() { op.CompleteLocalData() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(fs[0].at, fs[1].at); !parked || got != "[5ns] [5ns]" {
		t.Errorf("parked fence passed at 5: %v; continuation fences fired at %s, want [5ns] [5ns]", parked, got)
	}
}

// firedAt is a continuation fence that notes when it fired.
type firedAt struct {
	f   Fence
	eng *sim.Engine
	at  []sim.Time
}

func (r *firedAt) Fire() { r.at = append(r.at, r.eng.Now()) }

// Property: a cofence with DOWNWARD=d waits for exactly the pending ops
// whose class does not pass d; afterwards only passing ops remain pending.
func TestPropertyCofenceFiltering(t *testing.T) {
	prop := func(classesRaw []uint8, dRaw uint8) bool {
		d := Allow(dRaw % 4)
		eng := sim.NewEngine(int64(dRaw))
		ct := NewCofenceTracker(false, 0)
		ok := true
		eng.Go("main", func(p *sim.Proc) {
			var mustWait []*PendingOp
			for _, c := range classesRaw {
				class := OpClass(c%3 + 1)
				op := ct.Register(class, func() {})
				if !passes(class, d) {
					mustWait = append(mustWait, op)
				}
			}
			// Complete the must-wait ops at staggered times.
			for i, op := range mustWait {
				op := op
				eng.At(sim.Time(i+1)*10, func() { op.CompleteLocalData() })
			}
			start := p.Now()
			ct.Cofence(p, d, AllowNone)
			want := sim.Time(len(mustWait)) * 10
			if len(mustWait) == 0 {
				want = start
			}
			if p.Now() != want {
				ok = false
			}
			for _, op := range ct.pending {
				if !op.done && !passes(op.class, d) {
					ok = false
				}
			}
		})
		if err := eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// registerBorn registers an operation whose local data completes at
// registration, the old way (a stored PendingOp, completed at once) or
// through RegisterDone.
func registerBorn(ct *CofenceTracker, stored bool, init Initiator) {
	if stored {
		var op PendingOp
		ct.RegisterOp(&op, OpReads, init)
		op.CompleteLocalData()
		return
	}
	ct.RegisterDone(OpReads, init)
}

// A registration complete at birth never enters the pending list, in
// either mode, and is initiated exactly once.
func TestRegisterDoneNeverPending(t *testing.T) {
	for _, maxDelay := range []int{0, 1, 8} {
		ct := NewCofenceTracker(maxDelay > 0, maxDelay)
		started := 0
		for i := 0; i < 20; i++ {
			ct.RegisterDone(OpReads, InitiatorFunc(func() { started++ }))
			if ct.Pending() != 0 {
				t.Fatalf("maxDelay %d: pending = %d after RegisterDone", maxDelay, ct.Pending())
			}
			if got := started + ct.Delayed(); got != i+1 {
				t.Fatalf("maxDelay %d: %d started + %d buffered after %d registrations",
					maxDelay, started, ct.Delayed(), i+1)
			}
		}
		if !ct.TryCofence(AllowNone) || started != 20 {
			t.Errorf("maxDelay %d: full fence clear %v with %d of 20 started",
				maxDelay, ct.TryCofence(AllowNone), started)
		}
	}
}

// RegisterDone initiates, buffers and flushes at the same points as
// RegisterOp followed by CompleteLocalData, interleaved with operations
// that stay pending, fences at every level and flushes.
func TestRegisterDoneInitiatesLikeRegisterOp(t *testing.T) {
	script := func(stored bool, maxDelay int) []string {
		ct := NewCofenceTracker(true, maxDelay)
		var log []string
		step := 0
		mark := func(what string) Initiator {
			return InitiatorFunc(func() { log = append(log, fmt.Sprintf("%d:%s", step, what)) })
		}
		var held []*PendingOp
		for step = 0; step < 40; step++ {
			switch step % 8 {
			case 0, 3, 5:
				registerBorn(ct, stored, mark("spawn"))
			case 1:
				held = append(held, ct.Register(OpReads, mark("put").Initiate))
			case 2:
				held = append(held, ct.Register(OpWrites, mark("get").Initiate))
			case 4:
				log = append(log, fmt.Sprintf("%d:fence-read=%v", step, ct.TryCofence(AllowRead)))
			case 6:
				held[0].CompleteLocalData()
				held = held[1:]
				log = append(log, fmt.Sprintf("%d:fence-write=%v", step, ct.TryCofence(AllowWrite)))
			case 7:
				if step%16 == 15 {
					ct.Flush(AllowNone)
				}
			}
			log = append(log, fmt.Sprintf("%d:pending=%d,delayed=%d", step, ct.Pending(), ct.Delayed()))
		}
		return log
	}
	for _, maxDelay := range []int{1, 8} {
		want, got := script(true, maxDelay), script(false, maxDelay)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("maxDelay %d:\n got %v\nwant %v", maxDelay, got, want)
		}
	}
}

// A registration complete at birth wakes no fence, as it cannot clear
// one: the same fences resume at the same instants, in the same number
// of events, as when it stored a record and completed it.
func TestRegisterDoneWakesFencesLikeCompleteLocalData(t *testing.T) {
	run := func(stored bool) (sim.Time, uint64) {
		eng := sim.NewEngine(1)
		ct := NewCofenceTracker(false, 0)
		var fenceAt sim.Time
		eng.Go("main", func(p *sim.Proc) {
			w := ct.Register(OpWrites, func() {})
			r := ct.Register(OpReads, func() {})
			eng.At(5*sim.Microsecond, func() { registerBorn(ct, stored, InitiatorFunc(func() {})) })
			eng.At(10*sim.Microsecond, func() {
				r.CompleteLocalData()
				registerBorn(ct, stored, InitiatorFunc(func() {}))
			})
			eng.At(20*sim.Microsecond, func() {
				registerBorn(ct, stored, InitiatorFunc(func() {}))
				w.CompleteLocalData()
			})
			ct.Cofence(p, AllowWrite, AllowNone)
			ct.Cofence(p, AllowNone, AllowNone)
			fenceAt = p.Now()
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return fenceAt, eng.EventsRun()
	}
	wantAt, wantEvents := run(true)
	gotAt, gotEvents := run(false)
	if gotAt != wantAt || gotEvents != wantEvents || wantAt != 20*sim.Microsecond {
		t.Errorf("fences passed at %v in %d events, want %v in %d (at 20us)",
			gotAt, gotEvents, wantAt, wantEvents)
	}
}

// A continuation fence counts the operations pending at its creation
// that its class constrains: not one that passes it, not one registered
// after it. It fires once, at the completion of the last it counted.
func TestCofenceOpCountsEarlierConstrainedOps(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewCofenceTracker(false, 0)
	rd := ct.Register(OpReads, func() {})
	wr := ct.Register(OpWrites, func() {})
	f := firedAt{eng: eng}
	ct.CofenceOp(&f.f, AllowWrite, &f)
	later := ct.Register(OpReads, func() {})
	eng.At(10, func() { wr.CompleteLocalData() })
	eng.At(20, func() { rd.CompleteLocalData() })
	eng.At(30, func() { later.CompleteLocalData() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(f.at) != "[20ns]" {
		t.Errorf("fence fired at %v, want [20ns]", f.at)
	}
	none := firedAt{eng: eng}
	ct.CofenceOp(&none.f, AllowNone, &none)
	if fmt.Sprint(none.at) != "[30ns]" {
		t.Errorf("a fence over nothing pending fired at %v, want at once ([30ns])", none.at)
	}
}

// chainFence is a continuation fence whose firing runs more of the
// program: it registers an operation and a fence over it, and completes
// an operation that another fence waits on.
type chainFence struct {
	f    Fence
	name string
	log  *[]string
	then func()
}

func (c *chainFence) Fire() {
	*c.log = append(*c.log, c.name)
	if c.then != nil {
		c.then()
	}
}

// Fences are counted off in creation order and fire once each. A firing
// that registers operations and fences or completes other operations is
// reentrant, depth first: a completion inside a firing counts itself off
// every fence before the outer walk goes on (so b fires before ab, which
// still waited on a's count), the fences a firing makes do not count the
// completion being counted off, and a fence fired inside is not fired
// again.
func TestCofenceOpFiringIsReentrant(t *testing.T) {
	ct := NewCofenceTracker(false, 0)
	var log []string
	a := ct.Register(OpReads, func() {})
	b := ct.Register(OpWrites, func() {})
	var inner *PendingOp
	fa := &chainFence{name: "a", log: &log}   // waits on a
	fab := &chainFence{name: "ab", log: &log} // waits on a and b
	fb := &chainFence{name: "b", log: &log}   // waits on b
	fi := &chainFence{name: "inner", log: &log}
	fa.then = func() {
		// Registered while a is being counted off: fi must not count a.
		inner = ct.Register(OpReads, func() {})
		ct.CofenceOp(&fi.f, AllowNone, fi)
		b.CompleteLocalData() // fires fab and fb from inside fa's firing
	}
	ct.CofenceOp(&fa.f, AllowWrite, fa)
	ct.CofenceOp(&fab.f, AllowNone, fab)
	ct.CofenceOp(&fb.f, AllowRead, fb)
	a.CompleteLocalData()
	if got := fmt.Sprint(log); got != "[a b ab]" {
		t.Fatalf("fired %s, want [a b ab]", got)
	}
	inner.CompleteLocalData()
	if got := fmt.Sprint(log); got != "[a b ab inner]" || ct.Pending() != 0 || len(ct.rare.conts) != 0 {
		t.Errorf("fired %s with %d pending and %d fences held, want [a b ab inner], 0, 0", got, ct.Pending(), len(ct.rare.conts))
	}
}

// A continuation that registers an operation while the context's fence is
// parked on it must not have the operation deferred in the relaxed
// buffer: the fence's proc would never reach the synchronization point
// that starts it.
func TestRelaxedRegistrationUnderParkedFenceStartsAtOnce(t *testing.T) {
	for _, maxDelay := range []int{1, 8} {
		eng := sim.NewEngine(1)
		ct := NewCofenceTracker(true, maxDelay)
		passed := sim.Time(-1)
		eng.Go("main", func(p *sim.Proc) {
			first := ct.Register(OpReads, func() {
				eng.At(10, func() {
					var second *PendingOp
					second = ct.Register(OpReads, func() { eng.At(20, func() { second.CompleteLocalData() }) })
					// A class the fence lets pass may still wait for a
					// synchronization point.
					ct.Register(OpWrites, func() { t.Error("a write the fence lets pass was started") })
				})
			})
			eng.At(15, func() { first.CompleteLocalData() })
			ct.Cofence(p, AllowWrite, AllowNone)
			passed = p.Now()
		})
		if err := eng.Run(); err != nil {
			t.Fatalf("maxDelay %d: %v", maxDelay, err)
		}
		if passed != 20 || ct.Delayed() != 1 {
			t.Errorf("maxDelay %d: fence passed at %v with %d delayed, want 20ns and 1", maxDelay, passed, ct.Delayed())
		}
	}
}

// A tracker belongs to one execution context, which has one proc: a
// second fence parked on it is a bug, and says so.
func TestSecondParkedFencePanics(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewCofenceTracker(false, 0)
	op := ct.Register(OpReads, func() {})
	var recovered any
	eng.Go("first", func(p *sim.Proc) { ct.Cofence(p, AllowNone, AllowNone) })
	eng.Go("second", func(p *sim.Proc) {
		defer func() { recovered = recover() }()
		ct.Cofence(p, AllowNone, AllowNone)
	})
	eng.At(5, func() { op.CompleteLocalData() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if recovered == nil {
		t.Error("a second fence parked on one tracker")
	}
}

// A PendingOp is a class, a flag, a registration number in the padding
// after them, and its tracker; the tracker is 64 bytes.
func TestPoolPendingOpSize(t *testing.T) {
	if n := unsafe.Sizeof(PendingOp{}); n != 16 {
		t.Errorf("PendingOp is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(CofenceTracker{}); n != 64 {
		t.Errorf("CofenceTracker is %d bytes, want 64", n)
	}
}
