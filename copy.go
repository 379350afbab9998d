package caf

import (
	"fmt"

	"caf2go/internal/core"
	"caf2go/internal/fabric"
	"caf2go/internal/path"
	"caf2go/internal/race"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/trace"
)

// CopyOpt configures one asynchronous copy.
type CopyOpt func(*copyOpts)

type copyOpts struct {
	pred  *Event
	srcE  *Event
	destE *Event
}

// Pred gates the copy on a predicate event: it proceeds only after e has
// been posted (copy_async's preE, §II-C1). e may live on any image.
func Pred(e *Event) CopyOpt { return func(o *copyOpts) { o.pred = e } }

// SrcEvent requests notification of e when the source data has been read
// and the source buffer may be overwritten (copy_async's srcE).
// Supplying any completion event makes the copy explicitly synchronized:
// it is then invisible to cofence and to the enclosing finish.
func SrcEvent(e *Event) CopyOpt { return func(o *copyOpts) { o.srcE = e } }

// DestEvent requests notification of e when the data has been delivered
// to the destination (copy_async's destE).
func DestEvent(e *Event) CopyOpt { return func(o *copyOpts) { o.destE = e } }

// copyOp is the one record of an asynchronous copy: the completion handle
// returned to the caller, the delivery token, the cofence registration,
// the deferred initiation (core.Initiator), the send's completion
// (rt.Completion) and the wire payload of both hops — the read request to
// a remote source and the data to the destination. Like spawnOp it is
// owned, not pooled: the caller may keep &op.
type copyOp[T any] struct {
	op   Op
	tok  delivToken
	pend core.PendingOp

	dst, src           Sec[T]
	o                  copyOpts
	srcLocal, dstLocal bool // the buffer is on the initiator
	fenced             bool // pend is registered with the initiator's cofence
	bytes              int
	class              fabric.Class
	finish             int64 // the finish block an implicit copy is tracked in

	// localLeft counts the initiator's local buffers still in play; at
	// zero the copy is local data complete.
	localLeft int

	data []T // the snapshot in flight: inline's, when it fits

	// inline holds a one- or two-element snapshot in the record itself.
	inline [copyInline]T

	race *copyRace // the race detector's state; nil with it off
}

// copyInline is how many elements an asynchronous copy snapshots into its
// own record; longer sections snapshot into a slice of their own.
const copyInline = 2

// copyRace is an asynchronous copy's race-detector state. The op runs
// under its own clock components — a read component for the source
// access and a write component derived from it for the destination
// access — forked from the initiator's clock at the call (plus the
// predicate's clock once it fires). The initiator is NOT ordered after
// the op's accesses until some synchronization construct says so.
type copyRace struct {
	base, predClk, rclk, wclk, localClk race.Clock
	rid, wid                            int
}

// read and write return the op's read and write context and clock: -1
// and nil without a detector, which records nothing for them.
func (r *copyRace) read() (int, race.Clock) {
	if r == nil {
		return -1, nil
	}
	return r.rid, r.rclk
}

func (r *copyRace) write() (int, race.Clock) {
	if r == nil {
		return -1, nil
	}
	return r.wid, r.wclk
}

// copyHop is what the copy handlers, and a predicate event's owner, see
// of a copyOp[T]. A copy gated on an event waits there as itself: it is
// the payload of the messages to and from a remote event's owner and an
// entry of the event's queue (eventState.preds).
type copyHop interface {
	atSource(d *rt.Delivery) // serve the read request, forward the data
	atDest(d *rt.Delivery)   // apply the data
	predicate() *Event
	// predPosted runs on the predicate's owner when the copy consumes one
	// of its posts, with the event's release clock then.
	predPosted(clk race.Clock)
	start()
}

// CopyAsync initiates a one-sided asynchronous copy from src to dst
// (§II-C1). Either side may be a coarray section on any image or a
// process-local buffer; the initiator needs to own neither. The call
// guarantees only initiation completion. Without completion events the
// copy is implicitly synchronized: its local data completion is observed
// by cofence and its global completion by the enclosing finish.
//
// Completion points (Fig. 4):
//   - source on the initiator: local data completion when the data is on
//     the wire (source buffer reusable);
//   - destination on the initiator: local data completion when the data
//     has landed (destination readable);
//   - srcE / destE fire at source-read and destination-write wherever
//     those happen.
//
// The returned Op is the copy's completion handle: register
// continuations on its levels (or put it in a PollSet) instead of — or
// alongside — event-based completion. Discarding it is always safe.
func CopyAsync[T any](img *Image, dst, src Sec[T], opts ...CopyOpt) *Op {
	c := &copyOp[T]{dst: dst, src: src}
	for _, opt := range opts {
		opt(&c.o)
	}
	if dst.Len() != src.Len() {
		panic(fmt.Sprintf("caf: copy length mismatch: dst %d, src %d", dst.Len(), src.Len()))
	}
	img.st.copies++
	img.traceInstant("copy_async", "copy")
	me := img.Rank()
	c.srcLocal = src.isLocalBuf() || src.rank == me
	c.dstLocal = dst.isLocalBuf() || dst.rank == me
	implicit := c.o.srcE == nil && c.o.destE == nil
	c.bytes = src.Len()*src.elemBytes() + 16
	c.class = classForBytes(img.m, c.bytes)

	// Lifecycle tracking: the op's peer is the remote side (the
	// destination for puts and third-party copies, the source for gets).
	peer := me
	if !c.dstLocal {
		peer = dst.rank
	} else if !c.srcLocal {
		peer = src.rank
	}
	img.opInit(&c.op, "copy", peer)
	if implicit {
		c.finish = img.trackID()
	}
	if rc := img.raceCtx(); rc != nil {
		c.race = &copyRace{base: rc.Snapshot()}
	}

	// Cofence bookkeeping: how the op touches the initiator's local data,
	// one tick per local buffer.
	var class core.OpClass
	if c.srcLocal {
		class |= core.OpReads
		c.localLeft++
	}
	if c.dstLocal {
		class |= core.OpWrites
		c.localLeft++
	}

	if implicit && class != 0 {
		c.fenced = true
		img.ct.RegisterOp(&c.pend, class, c)
		if c.race != nil {
			img.rare.raceOps = append(img.rare.raceOps, raceOp{op: &c.pend, class: class, clkRef: &c.race.localClk})
		}
	} else {
		c.Initiate()
	}
	return &c.op
}

// Initiate starts the copy — now, or when the relaxed runtime releases
// it — behind its predicate event if it has one. A copy gated on an event
// of another image waits at the event's owner, one message each way.
func (c *copyOp[T]) Initiate() {
	e, m, me := c.o.pred, c.op.m, c.op.Initiator()
	switch {
	case e == nil:
		c.start()
	case e.owner == me:
		m.whenPosted(e, c)
	default:
		m.states[me].kern.Send(e.owner, tagEventChain, c, rt.SendOpts{Class: fabric.AMShort, Bytes: 24, NoCoalesce: true})
	}
}

func (c *copyOp[T]) predicate() *Event { return c.o.pred }

// predPosted keeps the consumed post's clock and starts the copy, back on
// its initiator if the event is hosted elsewhere.
func (c *copyOp[T]) predPosted(clk race.Clock) {
	if c.race != nil {
		c.race.predClk = clk
	}
	m, me, owner := c.op.m, c.op.Initiator(), c.o.pred.owner
	if owner == me {
		c.start()
		return
	}
	m.states[owner].kern.Send(me, tagResume, c, rt.SendOpts{Class: fabric.AMShort, Bytes: 16, NoCoalesce: true})
}

// forkOpClocks runs at actual initiation (the predicate may defer it):
// the read clock forks from the initiator's call-point snapshot joined
// with the consumed predicate post's clock; the write clock forks from
// the read clock (the write follows the read). The enclosing finish
// eagerly joins the op's clocks — its exit cannot happen before the op
// globally completes.
func (c *copyOp[T]) forkOpClocks() {
	r := c.race
	if r == nil {
		return
	}
	rs := c.op.m.race
	b := r.base
	if r.predClk != nil {
		b = race.Join(race.CopyClock(r.base), r.predClk)
	}
	r.rclk, r.rid = rs.d.OpClock(b)
	r.wclk, r.wid = rs.d.OpClock(r.rclk)
	if c.dstLocal {
		r.localClk = r.wclk
	} else {
		r.localClk = r.rclk
	}
	if c.finish != 0 {
		fs := rs.finishSyncFor(c.finish)
		race.JoinInto(&fs.ops, r.wclk)
	}
}

// dstRank is the image the data hop goes to.
func (c *copyOp[T]) dstRank() int {
	if c.dstLocal {
		return c.op.Initiator()
	}
	return c.dst.rank
}

func (c *copyOp[T]) start() {
	m, me := c.op.m, c.op.Initiator()
	st := &m.states[me]
	c.forkOpClocks()
	m.opAdvance(&c.op, me, trace.StageInit)
	opts := rt.SendOpts{Finish: c.finish, Path: path.WireTag(c.op.pctx), Done: c}
	if c.srcLocal {
		rid, rclk := c.race.read()
		raceRecord(m, c.src, false, rid, rclk, "copy_async read")
		c.data = c.src.snapshot(c.inline[:]) // snapshot at initiation
		if c.race != nil {
			c.tok.clk = &c.race.wclk
		}
		st.addDelivToken(&c.tok)
		opts.Class, opts.Bytes, opts.Injected = c.class, c.bytes, true
		st.kern.Send(c.dstRank(), tagCopyPut, c, opts)
		return
	}
	// Source is remote: ask its owner to read and forward (a get when
	// the destination is here, a third-party copy otherwise).
	if c.localLeft == 0 {
		// Third-party copy: no initiator-local buffers, so local data
		// completes at initiation.
		m.opAdvance(&c.op, me, trace.StageLocalData)
	}
	// The notify token completes when the read request lands — the read
	// has happened then, the data hop has not, so only the read clock is
	// released to event waiters.
	if c.race != nil {
		c.tok.clk = &c.race.rclk
	}
	st.addDelivToken(&c.tok)
	opts.Class, opts.Bytes = fabric.AMShort, 32
	st.kern.Send(c.src.rank, tagCopyGetReq, c, opts)
}

// Injected: the source buffer is reusable, the data is on the wire.
func (c *copyOp[T]) Injected() {
	c.localTick()
	if c.o.srcE != nil {
		_, rclk := c.race.read()
		c.op.m.notifyFrom(c.op.Initiator(), c.o.srcE, rclk)
	}
}

// Delivered: the put (or the read request) was accepted; nothing more is
// required of the initiator.
func (c *copyOp[T]) Delivered() {
	c.op.m.opAdvance(&c.op, c.op.Initiator(), trace.StageLocalOp)
	c.tok.complete()
}

// Abandoned (only under a failure detector): a put or get request
// abandoned at a dead image completes its token — the loss is charged to
// the enclosing finish, and notifies must not be gated on it forever. The
// op will never complete remotely; close out its record so blocked-time
// attribution still sees it.
func (c *copyOp[T]) Abandoned() { c.op.m.opAbandoned(&c.op, c.op.Initiator(), &c.tok) }

// localTick: one of the initiator's local buffers is out of play. After
// the last, the handle reaches its local data level and, for a copy the
// cofence covers, so does its registration there.
func (c *copyOp[T]) localTick() {
	if c.localLeft--; c.localLeft > 0 {
		return
	}
	c.op.m.opAdvance(&c.op, c.op.Initiator(), trace.StageLocalData)
	if c.fenced {
		c.pend.CompleteLocalData()
	}
}

func (c *copyOp[T]) atSource(d *rt.Delivery) {
	m, here := c.op.m, d.Img.Rank()
	rid, rclk := c.race.read()
	eff := m.raceChanArrive(d.Src, here, rclk)
	c.data = c.src.snapshot(c.inline[:])
	raceRecord(m, c.src, false, rid, eff, "copy_async read")
	if c.o.srcE != nil {
		// Source read complete: the source buffer may be overwritten.
		m.notifyFrom(here, c.o.srcE, eff)
	}
	m.states[here].kern.Send(c.dstRank(), tagCopyPut, c, rt.SendOpts{
		Finish: c.finish,
		Class:  c.class,
		Bytes:  c.bytes,
		Path:   path.WireTag(c.op.pctx),
	})
}

func (c *copyOp[T]) atDest(d *rt.Delivery) {
	m, here := c.op.m, d.Img.Rank()
	// FIFO channel edge: this delivery is ordered after every earlier
	// delivery on the same (src, dst) channel.
	wid, wclk := c.race.write()
	eff := m.raceChanArrive(d.Src, here, wclk)
	c.dst.write(c.data)
	raceRecord(m, c.dst, true, wid, eff, "copy_async write")
	if c.dstLocal {
		// The initiator's destination buffer is readable.
		c.localTick()
	}
	// Data applied at the destination: the copy is complete everywhere.
	m.opAdvance(&c.op, here, trace.StageGlobal)
	if c.o.destE != nil {
		m.notifyFrom(here, c.o.destE, eff)
	}
}

func (m *Machine) handleCopyPut(d *rt.Delivery) { d.Payload.(copyHop).atDest(d) }

func (m *Machine) handleCopyGetReq(d *rt.Delivery) { d.Payload.(copyHop).atSource(d) }

func (m *Machine) handleEventNotify(d *rt.Delivery) {
	m.landNotify(d.Img.Rank(), d.Payload.(*eventNotifyMsg))
}

// handleEventChain queues a copy on its predicate, hosted here.
func (m *Machine) handleEventChain(d *rt.Delivery) {
	c := d.Payload.(copyHop)
	m.whenPosted(c.predicate(), c)
}

// handleResume starts a copy whose remote predicate it consumed.
func (m *Machine) handleResume(d *rt.Delivery) { d.Payload.(copyHop).start() }

// ---------------------------------------------------------------------
// Blocking one-sided operations (the reference get/put style the paper's
// Figs. 2 and 13 contrast function shipping against). Each is one full
// network round trip.
// ---------------------------------------------------------------------

// blockingReq is the request record of a blocking Get or Put: the
// initiator parks on the Call while the owner serves the record in place,
// so the result needs no reply payload. The records are recycled on the
// free lists of the coarray the section names (DESIGN §4.14). A Call
// returns only after the owner has served its record and replied, and the
// fabric's dedup drops every duplicate before dispatch, so the caller
// releases the record at its own return. A Call aborted by a failure declaration
// panics out before the release, and the record an owner may still serve
// is left to the garbage collector. A released record is zeroed, so
// serving it panics.
type blockingReq interface {
	// serve performs the access on the owning image and returns the
	// modeled size of the reply.
	serve() (replyBytes int)
}

// errReleasedReq is the panic of a request served after its release.
const errReleasedReq = "caf: blocking request served after its release"

type getReq[T any] struct {
	src   Sec[T] // src.ca is nil once released
	bytes int
	out   []T // the values served: inline's, when they fit

	// inline holds a short get's values in the record itself, so that a
	// get of a few elements on a recycled record is served without
	// allocating.
	inline [reqInline]T
}

func (r *getReq[T]) serve() int {
	if r.src.ca == nil {
		panic(errReleasedReq)
	}
	r.out = r.src.snapshot(r.inline[:])
	return r.bytes
}

type putReq[T any] struct {
	dst  Sec[T] // dst.ca is nil once released
	data []T    // the values captured at injection: inline's, when they fit

	// inline holds a short put's values in the record itself, so that a
	// put of a few elements on a recycled record copies without
	// allocating.
	inline [reqInline]T
}

// reqInline is how many elements a blocking Get or Put carries in its
// request record; a longer get is served into, and a longer put copies its
// values into, a slice of its own.
const reqInline = 4

func (r *putReq[T]) serve() int {
	if r.dst.ca == nil {
		panic(errReleasedReq)
	}
	r.dst.write(r.data)
	return 8
}

// releaseReq hands a served request back to its free list, zeroed.
func releaseReq[R any](free *sim.FreeList[R], r *R) {
	var zero R
	*r = zero
	free.Put(r)
}

func (m *Machine) handleBlocking(d *rt.Delivery) {
	d.Reply(nil, d.Payload.(blockingReq).serve())
}

// blocked is the bracket of a blocking operation (a Get, a Put, a Lock,
// a blocking collective), a value: its lifecycle op, its blocked interval,
// and the collective instance whose clock its role acquires (nil for
// none, or with the detector off). The op never leaves the call, so it
// only exists to be stamped: without lifecycle or path tracing there is
// none (a nil *Op advances nothing).
type blocked struct {
	op   *Op
	btok trace.BlockToken
	acq  *collSync
}

// blockBegin opens the bracket of a blocking operation of the given kind
// on peer: the op's initiation and the start of the interval the caller
// is blocked in prim.
func (img *Image) blockBegin(kind, prim string, peer int) blocked {
	var b blocked
	if img.m.life != nil || img.m.path != nil {
		b.op = new(Op)
		img.opInit(b.op, kind, peer)
	}
	img.opStage(b.op, trace.StageInit)
	b.btok = img.beginBlock(prim)
	return b
}

// blockEnd closes the bracket once the operation returned: a
// collective's role-filtered acquire, then the completion levels, which
// a blocking call collapses at its return, stamped before the end of the
// blocked interval so that the park is attributed to this op.
func (img *Image) blockEnd(b blocked) {
	if b.acq != nil {
		img.raceCtx().Acquire(b.acq.clk)
	}
	img.opStage(b.op, trace.StageLocalData)
	img.opStage(b.op, trace.StageLocalOp)
	img.opStage(b.op, trace.StageGlobal)
	img.endBlock(b.btok)
}

// Get performs a blocking one-sided read of a (possibly remote) section
// and returns the values in a slice of the caller's own. The caller is
// parked for the round trip, so the race detector records the access
// under the caller's own clock — its program point orders it, on the
// local fast path too.
func Get[T any](img *Image, src Sec[T]) []T {
	if src.isLocalBuf() || src.rank == img.Rank() {
		raceRecordCtx(img, src, false, "get")
		return src.snapshot(nil)
	}
	req := getRemote(img, src, "Get")
	out := req.out
	if len(out) <= reqInline {
		// The values are in the record, which the next Get may take.
		out = append([]T(nil), out...)
	}
	releaseReq(&src.ca.gets, req)
	return out
}

// GetInto performs a blocking one-sided read of a (possibly remote)
// section into dst, storage the caller already owns: Fortran's
// x(:) = a(:)[p]. dst must be as long as the section. A short remote read
// allocates nothing: the owner serves it into the request record, and the
// values reach dst at the call's return, so nothing the owner serves after
// the reply can write dst.
func GetInto[T any](img *Image, dst []T, src Sec[T]) {
	if len(dst) != src.Len() {
		panic(fmt.Sprintf("caf: get length mismatch: dst %d, src %d", len(dst), src.Len()))
	}
	if src.isLocalBuf() || src.rank == img.Rank() {
		raceRecordCtx(img, src, false, "get")
		src.readInto(dst)
		return
	}
	req := getRemote(img, src, "GetInto")
	copy(dst, req.out)
	releaseReq(&src.ca.gets, req)
}

// getRemote is the round trip of a remote Get or GetInto (prim names the
// call): it returns the request record the owner served, which the caller
// reads and then releases.
func getRemote[T any](img *Image, src Sec[T], prim string) *getReq[T] {
	p := img.parker(prim)
	raceRecordCtx(img, src, false, "get")
	bytes := src.Len()*src.elemBytes() + 16
	b := img.blockBegin("get", "get", src.rank)
	req := src.ca.gets.New()
	*req = getReq[T]{src: src, bytes: bytes}
	img.st.kern.Call(p, src.rank, tagBlocking, req, rt.SendOpts{Class: fabric.AMShort, Bytes: 24})
	// The blocking round trip is pure network time on a traced request.
	img.m.path.Claim(img.pctx, path.Wire, img.Now())
	img.blockEnd(b)
	return req
}

// Put performs a blocking one-sided write of vals into a (possibly
// remote) section, returning after the write is visible there.
func Put[T any](img *Image, dst Sec[T], vals []T) {
	if dst.Len() != len(vals) {
		panic(fmt.Sprintf("caf: put length mismatch: dst %d, vals %d", dst.Len(), len(vals)))
	}
	if dst.isLocalBuf() || dst.rank == img.Rank() {
		raceRecordCtx(img, dst, true, "put")
		dst.write(vals)
		return
	}
	p := img.parker("Put")
	raceRecordCtx(img, dst, true, "put")
	req := dst.ca.puts.New()
	*req = putReq[T]{dst: dst}
	if len(vals) <= reqInline {
		req.data = append(req.inline[:0], vals...)
	} else {
		req.data = append([]T(nil), vals...)
	}
	bytes := len(vals)*dst.elemBytes() + 16
	b := img.blockBegin("put", "put", dst.rank)
	img.st.kern.Call(p, dst.rank, tagBlocking, req, rt.SendOpts{Class: classForBytes(img.m, bytes), Bytes: bytes})
	img.m.path.Claim(img.pctx, path.Wire, img.Now())
	img.blockEnd(b)
	releaseReq(&dst.ca.puts, req)
}
