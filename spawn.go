package caf

import (
	"fmt"
	"math"

	"caf2go/internal/core"
	"caf2go/internal/fabric"
	"caf2go/internal/failure"
	"caf2go/internal/path"
	"caf2go/internal/race"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/trace"
)

// SpawnFn is the body of a shipped function. It executes on the target
// image in its own simulated process, with an Image bound to that target.
// Values captured by the closure live in the simulation's shared address
// space; to model CAF 2.0's copy-by-value argument passing (and have the
// bytes charged to the network), pass data through WithPayload.
type SpawnFn func(img *Image)

// Ship calls fn: a closure is the Shipper whose state is its captures.
func (fn SpawnFn) Ship(img *Image) { fn(img) }

// Shipper is a shipped function as a record, as CAF 2.0 ships a named
// procedure with its arguments (§II-C2): its fields are the arguments and
// Ship the body, so a program that keeps its records ships without a
// closure per spawn. The runtime calls Ship once, on the target (never,
// if a crash loses the spawn), and reads the record for nothing else: the
// caller may reuse it once Ship has returned, and Ship may ship it again
// (a request that ships itself back as its reply). Its fields, like a
// closure's captures, live in the simulation's shared address space.
type Shipper interface{ Ship(img *Image) }

// SpawnOpt configures one Spawn. It is a plain value, applied by a switch:
// options cost a spawn no allocation.
type SpawnOpt struct {
	kind    spawnOptKind
	bytes   int32
	event   *Event
	data    []byte
	service Time
}

type spawnOptKind uint8

const (
	optEvent spawnOptKind = iota + 1
	optBytes
	optPayload
	optMirror
	optInline
)

// WithEvent makes the spawn explicitly completed: e is notified when the
// shipped function finishes executing on the target (§II-C2). An
// explicitly-completed spawn is not covered by cofence or by the
// enclosing finish — though implicit operations it initiates still are
// (Fig. 4, spawn row).
func WithEvent(e *Event) SpawnOpt { return SpawnOpt{kind: optEvent, event: e} }

// WithBytes sets the modeled argument payload size without shipping real
// data (default 32 bytes of header). It panics unless 0 ≤ n ≤
// math.MaxInt32.
func WithBytes(n int) SpawnOpt { return SpawnOpt{kind: optBytes, bytes: spawnBytes(n)} }

// spawnBytes is n as a spawn's modeled size, which the spawn keeps in 32
// bits: a size outside [0, math.MaxInt32] is a bug at the call site.
func spawnBytes(n int) int32 {
	if n < 0 || n > math.MaxInt32 {
		badSpawnBytes(n)
	}
	return int32(n)
}

// badSpawnBytes panics out of line, so that the options stay inlinable.
//
//go:noinline
func badSpawnBytes(n int) {
	panic(fmt.Sprintf("caf: spawn size %d outside [0, %d]", n, math.MaxInt32))
}

// withMirrorPath marks the spawn as a replication mirror write for path
// tracing: its fabric legs claim the ReplMirror bucket instead of Wire,
// so a traced request's decomposition separates replication cost from
// ordinary network time.
func withMirrorPath() SpawnOpt { return SpawnOpt{kind: optMirror} }

// WithPayload ships a copied byte payload to the target; the shipped
// function retrieves it with Payload. The slice is copied at initiation,
// so the caller may reuse its buffer after the spawn's local data
// completion (argument evaluation, §III-B3). Its modeled size is
// len(data) plus 32 bytes of header, and must not exceed math.MaxInt32.
func WithPayload(data []byte) SpawnOpt {
	return SpawnOpt{kind: optPayload, data: data, bytes: spawnBytes(len(data) + 32)}
}

// apply folds opts into the spawn, in order.
func (s *spawnOp) apply(opts []SpawnOpt) {
	for i := range opts {
		switch opt := &opts[i]; opt.kind {
		case optEvent:
			s.extra().event = opt.event
		case optBytes:
			s.bytes = opt.bytes
		case optPayload:
			s.extra().data = opt.data
			s.bytes = opt.bytes
		case optMirror:
			s.extra().mirror = true
		case optInline:
			s.service = opt.service
		}
	}
}

// spawnOp is the initiator's one record of a shipped function, closure
// or record. It is the wire payload, the op the lifecycle stamps (and
// SpawnHandle returns), the delivery token, the deferred initiation
// (core.Initiator) and the send's completion (rt.Completion), so a spawn
// builds no other object and no closure.
//
// A spawn that returns no handle takes its record from the Machine's
// free list: nothing outside the runtime can refer to it, and the
// runtime's last two references end at the spawn's ack (Delivered) and at
// the end of its function (shipped.exec), in either order. The second of
// the two releases it (end). A send the fabric abandons never reaches its
// ack, and a function a failure declaration unwinds never reaches its
// end, so such a record is left to the GC. SpawnHandle's record is
// owned: the caller may keep &op, and a continuation on it, for as long as
// it likes.
//
// The record stores nothing it can recompute, so it fits the 128-byte
// size class (a bunch of RandomAccess updates keeps every one of its
// spawns live at once): op 56 B, tok 32, sx two words, then target and
// bytes together, service and finishID, a word each. What few spawns use
// (continuations on the op, waiters on the token, the spawnExtra half)
// hangs off one pointer each. An implicit spawn's cofence registration
// is complete at birth, so it registers through RegisterDone and keeps
// no core.PendingOp; the request context the shipped function runs
// under is s.op.childCtx(), computed where it is used; and a service of
// notInline says the function is not Inline.
type spawnOp struct {
	op  Op         // completion handle; SpawnHandle returns its address
	tok delivToken // outstanding-delivery token (EventNotify's release)

	sx Shipper // what the spawn ships, or the *spawnExtra that holds it

	target   int32
	bytes    int32 // modeled wire size: header and arguments
	service  Time  // Inline's declared handler time; notInline for a proc
	finishID int64
}

// The bits of a spawn record's op.rec.
const (
	recPooled uint8 = 1 << iota // from Machine.spawns: released at its second end
	recEnded                    // one of its two ends has passed
	recDead                     // released under sim.QuarantinePools
)

// live panics on a record released under sim.QuarantinePools.
func (s *spawnOp) live() {
	if s.op.rec&recDead != 0 {
		panic("caf: spawn record used after its release")
	}
}

// end passes one of a pooled record's two ends, its ack and the end of
// its function, and at the second releases the record to m, zeroed.
func (s *spawnOp) end(m *Machine) {
	if s.op.rec&recPooled == 0 {
		return
	}
	if s.op.rec&recEnded == 0 {
		s.op.rec |= recEnded
		return
	}
	*s = spawnOp{}
	if m.spawns.Put(s) {
		s.op.rec = recDead
	}
}

// notInline is the service of a spawn not declared Inline, whose function
// runs as a proc. (Inline clamps the time it is given at 0.)
const notInline Time = -1

// inline reports whether the function runs as one event, not as a proc.
func (s *spawnOp) inline() bool { return s.service != notInline }

// spawnExtra is the half of a spawn that a spawn with only WithBytes and
// Inline leaves unset, made by the first option (or the race detector's
// fork edge) that needs it. It takes the spawn's Shipper in, and ships it.
type spawnExtra struct {
	r      Shipper    // what the spawn ships
	event  *Event     // WithEvent; nil = implicit, tracked by the enclosing finish
	data   []byte     // WithPayload
	clk    race.Clock // the fork edge, under the race detector; tok.clk points here
	mirror bool       // withMirrorPath
}

// Ship ships what the spawn ships.
func (x *spawnExtra) Ship(img *Image) { x.r.Ship(img) }

// x returns the spawn's spawnExtra, or nil.
func (s *spawnOp) x() *spawnExtra {
	x, _ := s.sx.(*spawnExtra)
	return x
}

// extra returns the spawn's spawnExtra, making it on first use.
func (s *spawnOp) extra() *spawnExtra {
	if s.x() == nil {
		s.sx = &spawnExtra{r: s.sx}
	}
	return s.x()
}

// event is the spawn's completion event; nil for an implicit spawn.
func (s *spawnOp) event() *Event {
	if x := s.x(); x != nil {
		return x.event
	}
	return nil
}

// Payload returns the byte payload shipped with the spawn that started
// this proc, or nil.
func (img *Image) Payload() []byte {
	if img.spawn == nil || img.spawn.x() == nil {
		return nil
	}
	return img.spawn.x().data
}

// Spawn ships fn to the target image for asynchronous execution
// (§II-C2). Without WithEvent the spawn completes implicitly: the
// enclosing finish tracks its global completion, and a cofence observes
// its local data completion (argument evaluation). The shipped function
// inherits the spawning context's innermost finish, so functions it
// spawns transitively remain covered (§III-A).
//
// As in CAF 2.0, a spawn is a statement with no handle: its completion
// is observed through finish, cofence or its event, so the runtime
// recycles its record. SpawnHandle is the spawn whose handle the caller
// keeps, SpawnRecord the spawn of a record.
func (img *Image) Spawn(target int, fn SpawnFn, opts ...SpawnOpt) {
	img.SpawnRecord(target, fn, opts...)
}

// SpawnRecord is Spawn of a record: the runtime calls r.Ship once on the
// target, under a closure's op kind, trace span, options and completion.
func (img *Image) SpawnRecord(target int, r Shipper, opts ...SpawnOpt) {
	s := img.m.spawns.New()
	s.sx, s.bytes, s.service = r, 32, notInline
	s.apply(opts)
	img.ship(target, s, true)
}

// SpawnHandle is Spawn returning the spawn's completion handle: local
// data fires at argument evaluation, local completion when the target
// accepted the function, global completion when the shipped function has
// finished executing there. The record is the caller's, so it is never
// recycled.
func (img *Image) SpawnHandle(target int, fn SpawnFn, opts ...SpawnOpt) *Op {
	s := &spawnOp{sx: fn, bytes: 32, service: notInline}
	s.apply(opts)
	img.ship(target, s, false)
	return &s.op
}

// ship is the common tail of the spawns; a pooled record goes back to the
// machine at the second of its two ends.
func (img *Image) ship(target int, s *spawnOp, pooled bool) {
	if target < 0 || target >= img.NumImages() {
		panic("caf: spawn target out of range")
	}
	img.st.spawnsSent++
	img.traceInstant("spawn", "ship")

	s.target = int32(target)
	s.finishID = img.trackID()
	// Fork edge: the child's clock starts from the spawner's at this
	// program point (snapshotted before any relaxed-mode deferral). The
	// delivery token carries it; the token joins its image's list only
	// at initiation.
	if clk := img.raceRelease(); clk != nil {
		x := s.extra()
		x.clk = clk
		s.tok.clk = &x.clk
	}
	img.opInit(&s.op, "spawn", target)
	if pooled {
		s.op.rec = recPooled
	}
	if s.event() != nil {
		s.Initiate()
		return
	}
	// Local data completion of a spawn is argument evaluation; with the
	// payload copied at initiation, initiation is that point. So the
	// registration is complete when it is made, and nothing is stored.
	img.ct.RegisterDone(core.OpReads, s)
}

// Initiate sends the spawn: now, or when the relaxed runtime releases it.
func (s *spawnOp) Initiate() {
	s.live()
	m, me := s.op.m, s.op.Initiator()
	// Argument evaluation: the payload is copied at initiation — which
	// is also the spawn's local data completion.
	m.opAdvance(&s.op, me, trace.StageInit)
	m.opAdvance(&s.op, me, trace.StageLocalData)
	st := &m.states[me]
	st.addDelivToken(&s.tok)
	// The shipped function continues the traced request's causal path:
	// it runs under the spawn op as its parent.
	pctx := s.op.childCtx()
	opts := rt.SendOpts{
		Class:  classForBytes(m, int(s.bytes)),
		Bytes:  int(s.bytes),
		Path:   path.WireTag(pctx),
		Done:   s,
		Finish: s.finishID,
	}
	if x := s.x(); x != nil {
		if x.data != nil {
			x.data = append([]byte(nil), x.data...)
		}
		if x.event != nil {
			opts.Finish = 0
		}
		if x.mirror {
			opts.Path = path.MirrorTag(pctx)
		}
	}
	st.kern.Send(int(s.target), tagSpawn, s, opts)
}

// Injected: a spawn does not watch its injection.
func (s *spawnOp) Injected() {}

// Delivered: the target accepted the function. It is one of a pooled
// record's two ends.
func (s *spawnOp) Delivered() {
	s.live()
	m := s.op.m
	m.opAdvance(&s.op, s.op.Initiator(), trace.StageLocalOp)
	s.tok.complete()
	s.end(m)
}

// Abandoned (only under a failure detector): a spawn abandoned at a dead
// image still completes its token — an EventNotify must not wait forever
// on a delivery the fabric has charged off. The shipped function will
// never run; close the record.
func (s *spawnOp) Abandoned() { s.op.m.opAbandoned(&s.op, s.op.Initiator(), &s.tok) }

// shipped is the target's one record of an executing shipped function:
// the Image the function sees and that Image's cofence tracker. The
// vehicle that runs it is the record itself: a sim.Body for a proc, a
// sim.Event for an Inline function, so neither builds anything more. A
// proc's record is a procShipped, owned, not pooled: the function may
// hand its *Image to a continuation that outlives the proc. An inline one
// is pooled on the Machine (DESIGN §4.14): its contract is that nothing
// keeps its Image.
type shipped struct {
	img Image
	ct  core.CofenceTracker
	s   *spawnOp
	d   *rt.Delivery // detached; completed when the function has returned
}

// procShipped is a proc's shipped record with the proc in it, so a
// shipped function that runs as a proc costs one object. A queued
// wake-up names the Proc, and the record lives as long as anything names
// either (DESIGN §4.13).
type procShipped struct {
	shipped
	p sim.Proc
}

// handleSpawn accepts a shipped function on its target. Counters, strand
// ids and race contexts are handed out here, at delivery, so that they
// follow the order functions arrive in whichever vehicle runs them.
func (m *Machine) handleSpawn(d *rt.Delivery) {
	s := d.Payload.(*spawnOp)
	s.live()
	st := &m.states[d.Img.Rank()]
	d.Detach()
	var sh *shipped
	var proc *procShipped
	if !s.inline() {
		proc = new(procShipped)
		sh = &proc.shipped
	} else if sh = m.inlines.Get(); sh == nil {
		// Get and new, not New: a function that leaves an operation
		// unfenced keeps its record, and a kept record must not sit in a
		// slab that the list keeps alive (DESIGN §4.14).
		sh = new(shipped)
	}
	st.spawnsExecuted++
	// Each shipped function carries its own cofence tracker: a cofence
	// inside it observes only operations it launched (dynamic scoping,
	// paper Fig. 10 / §III-B3). It also gets its own trace strand id, so
	// handler spans render on their own Perfetto track instead of
	// interleaving with the main's.
	st.nextTid++
	// The record is zero (new, or cleared before it was pooled), so the
	// Image is written field by field, in place.
	sh.s, sh.d = s, d
	img := &sh.img
	img.m, img.st, img.tid, img.spawn = m, st, st.nextTid, s
	img.inheritedFinish, img.pctx = s.finishID, s.op.childCtx()
	img.ct = m.initTracker(&sh.ct)
	if rs := m.race; rs != nil {
		img.rc = rs.d.NewCtx(m.raceChanArrive(d.Src, st.kern.Rank(), s.tok.clock()))
	}
	if proc != nil {
		st.kern.GoBody(&proc.p, "spawn", sh)
	} else {
		st.kern.After(s.service, sh)
	}
}

// Run is the shipped function's proc.
func (sh *shipped) Run(p *sim.Proc) {
	sh.img.proc = p
	if sh.img.m.det != nil {
		defer sh.completeAborted()
	}
	sh.exec(p.Now())
}

// exec runs the function, which began executing at start, and then what
// every shipped function does when it returns. Its end is one of a pooled
// spawn record's two ends, so the record leaves the Image there: a kept
// Image must not read the record of a later spawn.
func (sh *shipped) exec(start Time) {
	img, s := &sh.img, sh.s
	s.live()
	m := img.m
	s.sx.Ship(img)
	img.traceSpan("spawn-exec", "ship", start)
	// Spawned context exit is a synchronization point for any
	// initiations it deferred.
	img.ct.Flush(AllowNone)
	// The shipped function has finished executing on the target: the
	// spawn is globally complete.
	m.opAdvance(&s.op, img.Rank(), trace.StageGlobal)
	// The join edge: an implicit spawn releases its final clock into the
	// enclosing finish (the finish exit is ordered after the child's
	// body), an explicit one into its completion event.
	ev := s.event()
	if rs := m.race; rs != nil && img.rc != nil && ev == nil && s.finishID != 0 {
		img.rc.ReleaseInto(&rs.finishSyncFor(s.finishID).ops)
	}
	if ev != nil {
		m.notifyFrom(img.Rank(), ev, img.raceRelease())
	}
	sh.d.Complete()
	sh.s, img.spawn = nil, nil
	s.end(m)
}

// completeAborted is deferred under a failure detector: a shipped
// function aborted by a failure declaration still completes its delivery.
// The enclosing finish's received == completed invariant must hold even
// for activities that died blocked on a dead peer.
func (sh *shipped) completeAborted() {
	r := recover()
	if r == nil {
		return
	}
	ab, ok := r.(failure.Abort)
	if !ok {
		panic(r)
	}
	sh.img.m.recordAbort(sh.img.Rank(), ab.Err)
	sh.d.Complete()
}

// classForBytes picks the message class by payload size.
func classForBytes(m *Machine, bytes int) fabric.Class {
	if bytes > m.k.Fabric().MaxMedium() {
		return fabric.RDMA
	}
	return fabric.AMMedium
}

// MaxSpawnPayload reports the medium-AM payload cap — the limit that
// bounds how much work a single shipped steal can carry (§IV-C1a).
func (img *Image) MaxSpawnPayload() int { return img.m.k.Fabric().MaxMedium() - 32 }
