package caf

import (
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

// SpawnOpt configures one Spawn.
type SpawnOpt func(*spawnOpts)

type spawnOpts struct {
	event  *Event
	bytes  int
	data   []byte
	mirror bool
}

// WithEvent makes the spawn explicitly completed: e is notified when the
// shipped function finishes executing on the target (§II-C2). An
// explicitly-completed spawn is not covered by cofence or by the
// enclosing finish — though implicit operations it initiates still are
// (Fig. 4, spawn row).
func WithEvent(e *Event) SpawnOpt { return func(o *spawnOpts) { o.event = e } }

// WithBytes sets the modeled argument payload size without shipping real
// data (default 32 bytes of header).
func WithBytes(n int) SpawnOpt { return func(o *spawnOpts) { o.bytes = n } }

// withMirrorPath marks the spawn as a replication mirror write for path
// tracing: its fabric legs claim the ReplMirror bucket instead of Wire,
// so a traced request's decomposition separates replication cost from
// ordinary network time.
func withMirrorPath() SpawnOpt { return func(o *spawnOpts) { o.mirror = true } }

// WithPayload ships a copied byte payload to the target; the shipped
// function retrieves it with Payload. The slice is copied at initiation,
// so the caller may reuse its buffer after the spawn's local data
// completion (argument evaluation, §III-B3).
func WithPayload(data []byte) SpawnOpt {
	return func(o *spawnOpts) {
		o.data = data
		o.bytes = len(data) + 32
	}
}

// applySpawnOpts returns base with opts applied. An option takes the
// struct's address, which moves it to the heap; a spawn without options
// (nearly all of them) returns before that copy is made.
func applySpawnOpts(base spawnOpts, opts []SpawnOpt) spawnOpts {
	if len(opts) == 0 {
		return base
	}
	o := base
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// spawnMsg is the wire payload of a shipped function.
type spawnMsg struct {
	fn       SpawnFn
	finishID int64
	event    *Event
	data     []byte
	op       *Op        // completion handle
	rclk     race.Clock // spawner's clock at initiation (fork edge)
	pctx     path.Ctx   // traced request context the shipped fn runs under
}

// payloadKey carries the spawn payload to the shipped function's Image.
type payloadCarrier struct{ data []byte }

// Payload returns the byte payload shipped with the spawn that started
// this proc, or nil.
func (img *Image) Payload() []byte {
	if img.payload == nil {
		return nil
	}
	return img.payload.data
}

// Spawn ships fn to the target image for asynchronous execution
// (§II-C2). Without WithEvent the spawn completes implicitly: the
// enclosing finish tracks its global completion, and a cofence observes
// its local data completion (argument evaluation). The shipped function
// inherits the spawning context's innermost finish, so functions it
// spawns transitively remain covered (§III-A).
//
// The returned Op is the spawn's completion handle: local data fires at
// argument evaluation, local completion when the target accepted the
// function, global completion when the shipped function has finished
// executing there. Discarding it is always safe.
func (img *Image) Spawn(target int, fn SpawnFn, opts ...SpawnOpt) *Op {
	o := applySpawnOpts(spawnOpts{bytes: 32}, opts)
	if target < 0 || target >= img.NumImages() {
		panic("caf: spawn target out of range")
	}
	st := img.st
	st.spawnsSent++
	img.traceInstant("spawn", "ship")

	// Fork edge: the child's clock starts from the spawner's at this
	// program point (snapshotted before any relaxed-mode deferral).
	msg := &spawnMsg{finishID: img.trackID(), event: o.event, data: nil, rclk: img.raceRelease()}
	msg.op = img.opNew("spawn", target)
	if msg.op.pctx.Active() {
		// The shipped function continues the traced request's causal
		// path: it runs under the spawn op's span as its parent.
		msg.pctx = path.Ctx{Req: msg.op.pctx.Req, Span: msg.op.span}
	}
	ptag := path.WireTag(msg.pctx)
	if o.mirror {
		ptag = path.MirrorTag(msg.pctx)
	}
	implicit := o.event == nil

	var track any
	if implicit {
		track = img.track()
	}
	class := classForBytes(img.m, o.bytes)

	send := func() {
		// Argument evaluation: the payload is copied at initiation —
		// which is also the spawn's local data completion.
		img.m.opStageAt(msg.op, img.Rank(), trace.StageInit)
		img.m.opStageAt(msg.op, img.Rank(), trace.StageLocalData)
		if o.data != nil {
			msg.data = append([]byte(nil), o.data...)
		}
		msg.fn = fn
		tok := st.newDelivToken(msg.rclk)
		m, me := img.m, img.Rank()
		sendOpts := rt.SendOpts{
			Track: track,
			Class: class,
			Bytes: o.bytes,
			Path:  ptag,
			OnDelivered: func() {
				m.opStageAt(msg.op, me, trace.StageLocalOp)
				tok.complete()
			},
		}
		if m.det != nil {
			// A spawn abandoned at a dead image still completes its
			// token: an EventNotify must not wait forever on a delivery
			// the fabric has charged off. The shipped function will never
			// run; close the record.
			sendOpts.OnAbandoned = func() { m.opAbandoned(msg.op, me, tok) }
		}
		st.kern.Send(target, tagSpawn, msg, sendOpts)
	}

	if implicit {
		// Local data completion of a spawn is argument evaluation; with
		// payload copied at initiation, initiation is that point.
		op := img.ct.Register(core.OpReads, send)
		op.CompleteLocalData()
	} else {
		send()
	}
	return msg.op
}

// handleSpawn executes a shipped function on the destination image.
func (m *Machine) handleSpawn(d *rt.Delivery) {
	msg := d.Payload.(*spawnMsg)
	st := m.states[d.Img.Rank()]
	from := d.Src
	d.Detach()
	st.kern.Go("spawn", func(p *sim.Proc) {
		st.spawnsExecuted++
		// Each shipped function carries its own cofence tracker: a
		// cofence inside it observes only operations it launched
		// (dynamic scoping, paper Fig. 10 / §III-B3). It also gets its
		// own trace strand id, so handler spans render on their own
		// Perfetto track instead of interleaving with the main's.
		st.nextTid++
		img := &Image{m: m, st: st, proc: p, tid: st.nextTid,
			inheritedFinish: msg.finishID, ct: m.newTracker(),
			pctx: msg.pctx}
		if m.det != nil {
			// A shipped function aborted by a failure declaration still
			// completes its delivery: the enclosing finish's received ==
			// completed invariant must hold even for activities that
			// died blocked on a dead peer.
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				ab, ok := r.(failure.Abort)
				if !ok {
					panic(r)
				}
				m.recordAbort(st.kern.Rank(), ab.Err)
				d.Complete()
			}()
		}
		if rs := m.race; rs != nil {
			img.rc = rs.d.NewCtx(m.raceChanArrive(from, st.kern.Rank(), msg.rclk))
		}
		if msg.data != nil {
			img.payload = &payloadCarrier{data: msg.data}
		}
		execStart := p.Now()
		msg.fn(img)
		img.traceSpan("spawn-exec", "ship", execStart)
		// Spawned context exit is a synchronization point for any
		// initiations it deferred.
		img.ct.Flush()
		// The shipped function has finished executing on the target: the
		// spawn is globally complete.
		m.opStageAt(msg.op, img.Rank(), trace.StageGlobal)
		m.spawnJoin(img, msg.event, msg.finishID, d)
	})
}

// spawnJoin installs a completed shipped function's join edge: an
// implicit spawn releases its final clock into the enclosing finish (the
// finish exit is ordered after the child's body), an explicit one into
// its completion event; then the delivery completes.
func (m *Machine) spawnJoin(img *Image, event *Event, finishID int64, d *rt.Delivery) {
	if rs := m.race; rs != nil && img.rc != nil && event == nil && finishID != 0 {
		fs := rs.finishSyncFor(finishID)
		img.rc.ReleaseInto(&fs.ops)
	}
	if event != nil {
		m.notifyFrom(img.Rank(), event, img.raceRelease())
	}
	d.Complete()
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
