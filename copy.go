package caf

import (
	"fmt"

	"caf2go/internal/core"
	"caf2go/internal/fabric"
	"caf2go/internal/path"
	"caf2go/internal/race"
	"caf2go/internal/rt"
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

// copyPutMsg carries copy data to the destination image.
type copyPutMsg struct {
	data      any
	write     func(data any)
	onWritten func() // runs on the destination image after the write
	destE     *Event
	op        *Op // completion handle (nil = untracked internal hop)

	// Race-detector plumbing (nil/zero when off): wclk is the op's write
	// clock at send; recordW registers the destination access under the
	// channel-joined effective clock the delivery computes.
	wclk    race.Clock
	recordW func(clk race.Clock)
}

// copyReadMsg asks the source image to read a section and forward it.
type copyReadMsg struct {
	read    func() any
	dstRank int
	bytes   int
	class   fabric.Class
	track   any // base finish ref for the data hop
	srcE    *Event
	ptag    path.Tag // request tag for the forwarded data hop
	put     copyPutMsg

	// rclk is the op's read clock; recordR registers the source access.
	rclk    race.Clock
	recordR func(clk race.Clock)
}

// chainMsg registers a predicate continuation on a remote event's owner.
type chainMsg struct {
	e          *Event
	resumeRank int
	resume     func(clk race.Clock)
}

// resumeMsg carries a predicate continuation home with the clock of the
// consumed post.
type resumeMsg struct {
	fn  func(clk race.Clock)
	clk race.Clock
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
	var o copyOpts
	for _, opt := range opts {
		opt(&o)
	}
	if dst.Len() != src.Len() {
		panic(fmt.Sprintf("caf: copy length mismatch: dst %d, src %d", dst.Len(), src.Len()))
	}
	st := img.st
	st.copies++
	img.traceInstant("copy_async", "copy")
	me := img.Rank()
	srcLocal := src.isLocalBuf() || src.rank == me
	dstLocal := dst.isLocalBuf() || dst.rank == me
	implicit := o.srcE == nil && o.destE == nil
	bytes := src.Len()*src.elemBytes() + 16
	class := classForBytes(img.m, bytes)

	// Lifecycle tracking: the op's peer is the remote side (the
	// destination for puts and third-party copies, the source for gets).
	peer := me
	if !dstLocal {
		peer = dst.rank
	} else if !srcLocal {
		peer = src.rank
	}
	oph := img.opNew("copy", peer)

	var track any
	var tid int64
	if implicit {
		track = img.track()
		tid = img.trackID()
	}

	// Race detector: the op runs under its own clock components — a read
	// component for the source access and a write component derived from
	// it for the destination access — forked from the initiator's clock
	// at this program point (plus the predicate's clock once it fires).
	// The initiator is NOT ordered after the op's accesses until some
	// synchronization construct (cofence, finish, event) says so.
	rs := img.m.race
	var base, predClk, rclk, wclk, localClk race.Clock
	rid, wid := -1, -1
	if rs != nil && img.rc != nil {
		base = img.rc.Snapshot()
	}

	// Cofence bookkeeping: how the op touches the initiator's local data.
	var class2 core.OpClass
	if srcLocal {
		class2 |= core.OpReads
	}
	if dstLocal {
		class2 |= core.OpWrites
	}
	var op *core.PendingOp
	signals := 0
	if srcLocal {
		signals++
	}
	if dstLocal {
		signals++
	}
	signal := func() {
		signals--
		if signals == 0 && op != nil {
			op.CompleteLocalData()
		}
	}

	// Completion-handle local-data countdown, independent of the cofence
	// signals above (those exist only for implicit ops): one tick per
	// local buffer, advanced when the last becomes reusable/readable.
	ldLeft := 0
	if srcLocal {
		ldLeft++
	}
	if dstLocal {
		ldLeft++
	}
	ldSignal := func() {
		ldLeft--
		if ldLeft == 0 {
			img.m.opStageAt(oph, me, trace.StageLocalData)
		}
	}

	var onWritten func()
	if dstLocal {
		prev := signal
		if !implicit {
			prev = nil
		}
		onWritten = func() {
			ldSignal()
			if prev != nil {
				prev()
			}
		}
	}

	// forkOpClocks runs at actual initiation (the predicate may defer
	// it): the read clock forks from the initiator's call-point snapshot
	// joined with the consumed predicate post's clock; the write clock
	// forks from the read clock (the write follows the read). The
	// enclosing finish eagerly joins the op's clocks — its exit cannot
	// happen before the op globally completes.
	forkOpClocks := func() {
		if rs == nil || img.rc == nil {
			return
		}
		b := base
		if predClk != nil {
			b = race.Join(race.CopyClock(base), predClk)
		}
		rclk, rid = rs.d.OpClock(b)
		wclk, wid = rs.d.OpClock(rclk)
		if dstLocal {
			localClk = wclk
		} else {
			localClk = rclk
		}
		if tid != 0 {
			fs := rs.finishSyncFor(tid)
			race.JoinInto(&fs.ops, wclk)
		}
	}

	var start func()
	if srcLocal {
		dstRank := me
		if !dstLocal {
			dstRank = dst.rank
		}
		start = func() {
			forkOpClocks()
			img.m.opStageAt(oph, me, trace.StageInit)
			relSrc := claimSec(img.m, src, false, "copy_async read")
			raceRecord(img.m, src, false, rid, rclk, "copy_async read")
			data := src.read() // snapshot at initiation
			relSrc()
			relDst := claimSec(img.m, dst, true, "copy_async write")
			tok := st.newDelivToken(wclk)
			put := &copyPutMsg{
				data: data,
				write: func(d any) {
					dst.write(d.([]T))
					relDst()
				},
				onWritten: onWritten,
				destE:     o.destE,
				op:        oph,
				wclk:      wclk,
			}
			if rs != nil && dst.ca != nil {
				m, wid := img.m, wid
				put.recordW = func(clk race.Clock) {
					raceRecord(m, dst, true, wid, clk, "copy_async write")
				}
			}
			m := img.m
			sendOpts := rt.SendOpts{
				Track: track,
				Class: class,
				Bytes: bytes,
				Path:  path.WireTag(oph.pctx),
				OnDelivered: func() {
					m.opStageAt(oph, me, trace.StageLocalOp)
					tok.complete()
				},
			}
			if m.det != nil {
				// An abandoned put (dead destination) completes its
				// token: the loss is charged to the enclosing finish,
				// and notifies must not be gated on it forever. The op
				// will never complete remotely; close out its record so
				// blocked-time attribution still sees it.
				sendOpts.OnAbandoned = func() { m.opAbandoned(oph, me, tok) }
			}
			srcE := o.srcE
			sendOpts.OnInjected = func() {
				// Source buffer reusable: data is on the wire.
				ldSignal()
				if implicit {
					signal()
				}
				if srcE != nil {
					img.m.notifyFrom(me, srcE, rclk)
				}
			}
			st.kern.Send(dstRank, tagCopyPut, put, sendOpts)
		}
	} else {
		// Source is remote: ask its owner to read and forward (a get
		// when the destination is here, a third-party copy otherwise).
		dstRank := me
		if !dstLocal {
			dstRank = dst.rank
		}
		var baseTrack any
		if track != nil {
			baseTrack = core.Ref{ID: track.(core.Ref).ID}
		}
		start = func() {
			forkOpClocks()
			img.m.opStageAt(oph, me, trace.StageInit)
			if ldLeft == 0 {
				// Third-party copy: no initiator-local buffers, so local
				// data completes at initiation.
				img.m.opStageAt(oph, me, trace.StageLocalData)
			}
			relSrc := claimSec(img.m, src, false, "copy_async read")
			relDst := claimSec(img.m, dst, true, "copy_async write")
			// The notify token completes when the read request lands —
			// the read has happened then, the data hop has not, so only
			// the read clock is released to event waiters.
			tok := st.newDelivToken(rclk)
			msg := &copyReadMsg{
				read: func() any {
					v := src.read()
					relSrc()
					return v
				},
				dstRank: dstRank,
				bytes:   bytes,
				class:   class,
				track:   baseTrack,
				srcE:    o.srcE,
				ptag:    path.WireTag(oph.pctx),
				rclk:    rclk,
				put: copyPutMsg{
					write: func(d any) {
						dst.write(d.([]T))
						relDst()
					},
					onWritten: onWritten,
					destE:     o.destE,
					op:        oph,
					wclk:      wclk,
				},
			}
			if rs != nil {
				m := img.m
				if src.ca != nil {
					rid := rid
					msg.recordR = func(clk race.Clock) {
						raceRecord(m, src, false, rid, clk, "copy_async read")
					}
				}
				if dst.ca != nil {
					wid := wid
					msg.put.recordW = func(clk race.Clock) {
						raceRecord(m, dst, true, wid, clk, "copy_async write")
					}
				}
			}
			m := img.m
			reqOpts := rt.SendOpts{
				Track: track,
				Class: fabric.AMShort,
				Bytes: 32,
				Path:  path.WireTag(oph.pctx),
				OnDelivered: func() {
					// Read request accepted at the source: nothing more is
					// required of the initiator.
					m.opStageAt(oph, me, trace.StageLocalOp)
					tok.complete()
				},
			}
			if m.det != nil {
				// A get request abandoned at a dead owner completes the
				// token, like the put path above.
				reqOpts.OnAbandoned = func() { m.opAbandoned(oph, me, tok) }
			}
			st.kern.Send(src.rank, tagCopyGetReq, msg, reqOpts)
		}
	}

	initiate := start
	if o.pred != nil {
		initiate = func() {
			img.m.gatePredicate(me, o.pred, func(clk race.Clock) {
				predClk = clk
				start()
			})
		}
	}

	if implicit && class2 != 0 {
		op = img.ct.Register(class2, initiate)
		if rs != nil {
			img.raceOps = append(img.raceOps, raceOp{op: op, class: class2, clkRef: &localClk})
		}
	} else {
		initiate()
	}
	return oph
}

// gatePredicate runs fn once e has a post available, routing through e's
// owner image when remote (one message each way). fn receives the
// event's accumulated release clock at consumption (nil when the race
// detector is off).
func (m *Machine) gatePredicate(fromRank int, e *Event, fn func(clk race.Clock)) {
	if e.owner == fromRank {
		m.whenPosted(e, func() { fn(m.eventClock(e)) })
		return
	}
	m.states[fromRank].kern.Send(e.owner, tagEventChain, &chainMsg{
		e:          e,
		resumeRank: fromRank,
		resume:     fn,
	}, rt.SendOpts{Class: fabric.AMShort, Bytes: 24, NoCoalesce: true})
}

// eventClock copies the event's accumulated release clock.
func (m *Machine) eventClock(e *Event) race.Clock {
	if m.race == nil {
		return nil
	}
	return race.CopyClock(m.eventState(e).rclk)
}

func (m *Machine) handleCopyPut(d *rt.Delivery) {
	msg := d.Payload.(*copyPutMsg)
	here := d.Img.Rank()
	// FIFO channel edge: this delivery is ordered after every earlier
	// delivery on the same (src, dst) channel.
	eff := m.raceChanArrive(d.Src, here, msg.wclk)
	msg.write(msg.data)
	if msg.recordW != nil {
		msg.recordW(eff)
	}
	if msg.onWritten != nil {
		msg.onWritten()
	}
	// Data applied at the destination: the copy is complete everywhere.
	m.opStageAt(msg.op, here, trace.StageGlobal)
	if msg.destE != nil {
		m.notifyFrom(here, msg.destE, eff)
	}
}

func (m *Machine) handleCopyGetReq(d *rt.Delivery) {
	msg := d.Payload.(*copyReadMsg)
	here := d.Img.Rank()
	eff := m.raceChanArrive(d.Src, here, msg.rclk)
	data := msg.read()
	if msg.recordR != nil {
		msg.recordR(eff)
	}
	if msg.srcE != nil {
		// Source read complete: the source buffer may be overwritten.
		m.notifyFrom(here, msg.srcE, eff)
	}
	put := msg.put
	put.data = data
	m.states[here].kern.Send(msg.dstRank, tagCopyPut, &put, rt.SendOpts{
		Track: msg.track,
		Class: msg.class,
		Bytes: msg.bytes,
		Path:  msg.ptag,
	})
}

func (m *Machine) handleEventNotify(d *rt.Delivery) {
	msg := d.Payload.(*eventNotifyMsg)
	m.eventRelease(msg.e, msg.clk)
	// The post is visible on the owner: the notify is globally complete.
	m.opStageAt(msg.op, d.Img.Rank(), trace.StageGlobal)
	m.post(msg.e)
}

func (m *Machine) handleEventChain(d *rt.Delivery) {
	msg := d.Payload.(*chainMsg)
	here := d.Img.Rank()
	m.whenPosted(msg.e, func() {
		m.states[here].kern.Send(msg.resumeRank, tagResume,
			&resumeMsg{fn: msg.resume, clk: m.eventClock(msg.e)},
			rt.SendOpts{Class: fabric.AMShort, Bytes: 16, NoCoalesce: true})
	})
}

func (m *Machine) handleResume(d *rt.Delivery) {
	msg := d.Payload.(*resumeMsg)
	msg.fn(msg.clk)
}

// ---------------------------------------------------------------------
// Blocking one-sided operations (the reference get/put style the paper's
// Figs. 2 and 13 contrast function shipping against). Each is one full
// network round trip.
// ---------------------------------------------------------------------

// blockingReq is the request record of a blocking Get or Put: the
// initiator parks on the Call while the owner serves the record in place,
// so the result needs no reply payload. One record per operation and
// never recycled — the owner can serve it after a failure declaration has
// aborted the Call that sent it.
type blockingReq interface {
	// serve performs the access on the owning image and returns the
	// modeled size of the reply.
	serve() (replyBytes int)
}

type getReq[T any] struct {
	src   Sec[T]
	rel   func() // conflict-detection release
	bytes int
	out   []T
}

func (r *getReq[T]) serve() int {
	r.out = r.src.read()
	r.rel()
	return r.bytes
}

type putReq[T any] struct {
	dst  Sec[T]
	data []T
	rel  func()
}

func (r *putReq[T]) serve() int {
	r.dst.write(r.data)
	r.rel()
	return 8
}

func (m *Machine) handleBlocking(d *rt.Delivery) {
	d.Reply(nil, d.Payload.(blockingReq).serve())
}

// blockingOp returns the lifecycle handle of a blocking Get or Put. The
// handle never leaves the call, so it only exists to be stamped: without
// lifecycle or path tracing there is none (a nil *Op advances nothing).
func (img *Image) blockingOp(kind string, peer int) *Op {
	if img.m.life == nil && img.m.path == nil {
		return nil
	}
	return img.opNew(kind, peer)
}

// claimSec registers a conflict-detection claim for a coarray section
// (no-op for local buffers or when detection is off).
func claimSec[T any](m *Machine, s Sec[T], write bool, op string) func() {
	if s.ca == nil {
		return func() {}
	}
	return m.beginAccess(s.ca, s.rank, s.lo, s.hi, s.step, write, op)
}

// Get performs a blocking one-sided read of a (possibly remote) section.
// The caller is parked for the round trip, so the happens-before tier
// records the access under the caller's own clock — its program point
// orders it, including on the local fast path the overlap tier skips
// (an instantaneous access cannot temporally overlap, but it can still
// be unordered with a remote writer).
func Get[T any](img *Image, src Sec[T]) []T {
	if src.isLocalBuf() || src.rank == img.Rank() {
		raceRecordCtx(img, src, false, "get")
		return src.read()
	}
	rel := claimSec(img.m, src, false, "get")
	raceRecordCtx(img, src, false, "get")
	bytes := src.Len()*src.elemBytes() + 16
	oph := img.blockingOp("get", src.rank)
	img.opStage(oph, trace.StageInit)
	tok := img.beginBlock("get")
	req := &getReq[T]{src: src, rel: rel, bytes: bytes}
	img.st.kern.Call(img.proc, src.rank, tagBlocking, req, rt.SendOpts{Class: fabric.AMShort, Bytes: 24})
	// The blocking round trip is pure network time on a traced request.
	img.m.path.Claim(img.pctx, path.Wire, img.Now())
	// A blocking round trip collapses the completion levels at return;
	// stamped before endBlock so the park is attributed to this op.
	img.opStage(oph, trace.StageLocalData)
	img.opStage(oph, trace.StageLocalOp)
	img.opStage(oph, trace.StageGlobal)
	img.endBlock(tok)
	return req.out
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
	rel := claimSec(img.m, dst, true, "put")
	raceRecordCtx(img, dst, true, "put")
	data := append([]T(nil), vals...)
	bytes := len(vals)*dst.elemBytes() + 16
	oph := img.blockingOp("put", dst.rank)
	img.opStage(oph, trace.StageInit)
	tok := img.beginBlock("put")
	img.st.kern.Call(img.proc, dst.rank, tagBlocking, &putReq[T]{dst: dst, data: data, rel: rel},
		rt.SendOpts{Class: classForBytes(img.m, bytes), Bytes: bytes})
	img.m.path.Claim(img.pctx, path.Wire, img.Now())
	img.opStage(oph, trace.StageLocalData)
	img.opStage(oph, trace.StageLocalOp)
	img.opStage(oph, trace.StageGlobal)
	img.endBlock(tok)
}
