// Package rt is the runtime kernel of the simulated CAF 2.0 machine: one
// ImageKernel per process image, typed active-message dispatch with
// request/reply correlation, per-image simulated processes, and the
// message-lifecycle tracking hooks that the finish termination-detection
// plane (internal/core) observes.
//
// Layering: fabric moves bytes; rt moves typed messages and knows what an
// image is; core counts tracked messages; the caf package on top exposes
// the language-level constructs.
//
// A message costs rt no allocation in steady state. Its three per-message
// records are recycled through free lists on the Kernel (DESIGN §4.14):
// an outMsg per send, holding the fabric.Msg, the envelope and the
// sender's completion, which is itself the completion the fabric calls
// back and is released in its own ack callback; a Delivery per
// dispatch, released when the handler returns or at Complete; and a wait
// slot per Call, which travels to the callee and back by pointer and is
// released when Call returns. On a fabric with a fault plan outMsgs are
// left to the garbage collector instead: a retransmission or a duplicate
// can still be in flight after the ack. When a list is empty, as it is
// through a new machine's first burst, the record is carved from a 4 KiB
// slab of its type (sim.FreeList.New), so a burst of thousands of
// messages in flight at once makes one object per slab, not per message.
package rt

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"caf2go/internal/fabric"
	"caf2go/internal/failure"
	"caf2go/internal/path"
	"caf2go/internal/sim"
)

// Reserved fabric tags used by rt itself.
const (
	tagReply uint16 = 0xFFFF
)

// Track is the finish-plane context of a tracked message: what the wire
// carries of it, made by the Tracker's OnSend from the finish block the
// sender named (SendOpts.Finish), carried by value in the envelope to the
// Delivery, and handed to the Tracker at each later step. The zero value
// is "untracked". rt reads only ID; the other fields are the tracker's:
// the sender's epoch parity, and the tracker-owned record on the sender
// the message's ack is credited to. The endpoints ride in the message
// itself, and the receiver's record stays on the Delivery: rt hands both
// to the Tracker.
type Track struct {
	ID        int64 // the finish block; 0 = untracked
	ParityOdd bool
	SBox      TrackBox
}

// Tracked reports whether t names a finish block.
func (t Track) Tracked() bool { return t.ID != 0 }

// TrackBox is a pointer to a record of the tracker's own that rides with
// a tracked message. rt never looks inside.
type TrackBox interface {
	TrackBox()
}

// Tracker observes the lifecycle of tracked messages. A message sent with
// a tracked context triggers, in order: OnSend on the source (which
// stamps the context, e.g. with the sender's epoch parity), OnReceive on
// the destination at delivery, OnComplete on the destination when the
// handler (or the detached work it started) finishes, and OnAck on the
// source when the delivery acknowledgement returns. The finish plane
// implements this to maintain its sent/received/completed/delivered
// counters (paper Fig. 7).
type Tracker interface {
	// OnSend makes the context of a message tracked in finish block
	// finish (its parity, the sender's epoch); the returned value travels
	// with the message.
	OnSend(src *ImageKernel, finish int64) Track
	// OnReceive returns the receiver's record the message's completion
	// is credited to; rt keeps it on the Delivery for OnComplete.
	OnReceive(dst *ImageKernel, t Track) TrackBox
	// OnComplete sees the world rank the message came from, and OnAck
	// the one it went to.
	OnComplete(dst *ImageKernel, src int, t Track, rbox TrackBox)
	OnAck(src *ImageKernel, dst int, t Track)
	// OnAbandoned fires on the source when the fabric gives up on a
	// tracked message for good (dead destination NIC, dead source NIC,
	// or exhausted retransmission budget). It replaces the OnAck that
	// will never come; only fired when a failure detector is attached.
	OnAbandoned(src *ImageKernel, t Track)
}

// Handler processes a delivered message on an image.
type Handler func(d *Delivery)

// env is the rt wire envelope. A Call's request carries its wait slot and
// the call's id, and the reply carries both back. A Call is the one
// message a handler sees with a slot, and its reply goes to the message's
// sender.
type env struct {
	payload any
	track   Track
	replyID uint64
	slot    *callSlot // the caller's wait slot; nil on a one-way message
}

// outMsg is the sending side of one message: the fabric message (which
// carries the fabric's transit state for it), its envelope, and what to
// run when the fabric is done with it. The record is the
// fabric.Completion of its own send, so handing it to the fabric builds
// no callback. It fits the 176-byte size class: every message of a
// credit-stalled burst holds one. A record comes off its free list
// zeroed, and each send writes its fields once, in place.
type outMsg struct {
	img  *ImageKernel // nil once released
	msg  fabric.Msg
	env  env
	user Completion // the sender's SendOpts.Done
}

func (o *outMsg) live() {
	if o.img == nil {
		panic("rt: outMsg used after its ack callback")
	}
}

// Injected is the payload's injection, which the sender asked for.
func (o *outMsg) Injected() {
	o.live()
	o.user.Injected()
}

// Delivered is the message's ack callback on the sender. Nothing refers
// to the message after it: the handler ran before the ack left, and on a
// fabric with a fault plan a duplicate that lands later is dropped by the
// receiver's dedup and acked without reading the message. So it ends by
// releasing the record.
func (o *outMsg) Delivered() {
	o.live()
	img := o.img
	k := img.k
	if o.env.track.Tracked() {
		k.tracker.OnAck(img, int(o.msg.Dst), o.env.track)
	}
	if o.user != nil {
		o.user.Delivered()
	}
	*o = outMsg{}
	k.outMsgs.Put(o)
}

// Abandoned replaces Delivered when the fabric gives up on the message;
// only a fabric with a fault plan does. It does not release the record:
// an abandoned message is never acked, so its last reference is unknown.
// Without a failure detector abandonment stays silent, exactly as it was
// before the detector existed.
func (o *outMsg) Abandoned() {
	o.live()
	if o.img.k.det == nil {
		return
	}
	if o.env.track.Tracked() {
		o.img.k.tracker.OnAbandoned(o.img, o.env.track)
	}
	if o.user != nil {
		o.user.Abandoned()
	}
}

// Kernel is the whole simulated machine.
type Kernel struct {
	eng     *sim.Engine
	fab     *fabric.Fabric
	images  []ImageKernel // one slab: images live as long as the machine
	tracker Tracker
	det     *failure.Detector // nil unless a failure detector is attached
	nextID  int64             // generator for team ids etc.

	nextCallID uint64

	outMsgs    sim.FreeList[outMsg]
	deliveries sim.FreeList[Delivery]
	slots      sim.FreeList[callSlot]
}

// NewKernel builds a machine with n images over the given fabric config.
func NewKernel(eng *sim.Engine, n int, cfg fabric.Config) *Kernel {
	k := &Kernel{
		eng: eng,
		fab: fabric.New(eng, n, cfg),
	}
	// Images live as long as the machine, and so does what each keeps
	// of its own: its name ("img<rank>", a substring of one string) and
	// room for its first two procs (the main and one handler) come from
	// one slab each.
	k.images = make([]ImageKernel, n)
	procs := make([]*sim.Proc, 2*n)
	// The builder is grown once for every name, so each String shares
	// its one buffer.
	var names strings.Builder
	names.Grow(n * len("img"+strconv.Itoa(n)))
	var digits [20]byte
	for i := range k.images {
		start := names.Len()
		names.WriteString("img")
		names.Write(strconv.AppendInt(digits[:0], int64(i), 10))
		k.images[i] = ImageKernel{
			k:         k,
			rank:      i,
			ep:        k.fab.Endpoint(i),
			procScope: names.String()[start:],
			procs:     sim.ProcListOn(procs[2*i : 2*i : 2*i+2]),
		}
	}
	k.fab.RegisterHandler(tagReply, k.handleReply)
	return k
}

// Fabric returns the communication fabric.
func (k *Kernel) Fabric() *fabric.Fabric { return k.fab }

// NumImages reports the machine size.
func (k *Kernel) NumImages() int { return len(k.images) }

// Image returns image kernel i.
func (k *Kernel) Image(i int) *ImageKernel { return &k.images[i] }

// SetTracker installs the message-lifecycle tracker (the finish plane).
func (k *Kernel) SetTracker(t Tracker) { k.tracker = t }

// SetDetector attaches the failure detector. With a detector attached,
// blocking Calls abort (via failure.Abort) instead of hanging when an
// image is declared dead, tracked sends report abandonment to the
// tracker, and late replies for aborted calls are dropped instead of
// panicking. nil (the default) keeps all legacy behavior.
func (k *Kernel) SetDetector(d *failure.Detector) { k.det = d }

// Detector returns the attached failure detector, or nil.
func (k *Kernel) Detector() *failure.Detector { return k.det }

// NextID returns a machine-wide unique id (team ids, finish ids). It is
// safe because the simulation is single-threaded.
func (k *Kernel) NextID() int64 {
	k.nextID++
	return k.nextID
}

// RegisterHandler installs h for tag on every image: one fabric handler
// per machine, which finds the receiving image by its endpoint's rank.
// Panics on duplicate tags or rt-reserved tags.
func (k *Kernel) RegisterHandler(tag uint16, h Handler) {
	if tag == tagReply {
		panic(fmt.Sprintf("rt: tag %d is reserved", tag))
	}
	k.fab.RegisterHandler(tag, func(ep *fabric.Endpoint, m *fabric.Msg) {
		k.images[ep.Rank()].dispatch(m, h)
	})
}

// ImageKernel is one process image's runtime state.
type ImageKernel struct {
	k    *Kernel
	rank int
	ep   *fabric.Endpoint
	rng  *rand.Rand // made by the first Rng call

	procScope string       // "img<rank>", the scope of this image's proc names
	procSeq   int          // numbers the procs started on this image
	procs     sim.ProcList // unfinished procs started on this image (diagnostics)
}

// Rank returns the image's world rank.
func (img *ImageKernel) Rank() int { return img.rank }

// Kernel returns the owning machine.
func (img *ImageKernel) Kernel() *Kernel { return img.k }

// Rng returns the image's deterministic private random stream. The
// stream is a function of the engine seed and the rank alone, so making
// it on first use draws what making it with the image would have.
func (img *ImageKernel) Rng() *rand.Rand {
	if img.rng == nil {
		img.rng = img.k.eng.DeriveRand(int64(img.rank))
	}
	return img.rng
}

// Engine returns the simulation engine.
func (img *ImageKernel) Engine() *sim.Engine { return img.k.eng }

// Endpoint returns the image's fabric endpoint.
func (img *ImageKernel) Endpoint() *fabric.Endpoint { return img.ep }

// Go starts a simulated process on this image, named
// img<rank>/<name>#<n> for the n-th proc started here.
func (img *ImageKernel) Go(name string, fn func(p *sim.Proc)) *sim.Proc {
	p := new(sim.Proc)
	img.GoBody(p, name, sim.BodyFunc(fn))
	return p
}

// GoBody is Go for a zero Proc and a body that the caller keeps in a
// record of its own (see sim.Engine.GoBody): it allocates nothing.
func (img *ImageKernel) GoBody(p *sim.Proc, name string, body sim.Body) {
	img.procSeq++
	img.k.eng.GoBody(p, sim.ProcName{Scope: img.procScope, Base: name, Seq: img.procSeq}, body)
	img.procs.Add(p)
}

// After schedules ev to run d from now: work of the image that needs no
// proc of its own.
func (img *ImageKernel) After(d sim.Time, ev sim.Event) {
	eng := img.k.eng
	eng.AtEvent(eng.Now()+d, ev)
}

// Procs returns the unfinished processes started on this image via Go,
// in start order — the per-image wait-state dump for deadlock
// diagnostics reads their states from here.
func (img *ImageKernel) Procs() []*sim.Proc { return img.procs.Live() }

// Completion is what a sender runs when the fabric is done with its
// message (see fabric.Completion).
type Completion = fabric.Completion

// SendOpts mirror fabric completion callbacks plus the tracking context.
// They fit in 64 bytes, so passing them by value costs a few moves.
type SendOpts struct {
	Finish int64 // the finish block the message is tracked in; 0 = untracked
	Bytes  int   // the modeled size; must fit in 32 bits (fabric.Int32)
	// Path tags the message with the traced request whose causal path
	// it rides (see fabric.Msg.Path). Zero = untagged.
	Path  path.Tag
	Class fabric.Class
	// NoCoalesce exempts latency-critical control traffic from the
	// fabric's coalescing buffer (see fabric.SendOpts.NoCoalesce).
	NoCoalesce bool
	Injected   bool // call Done.Injected when the source buffer is reusable
	// Done, when set, has its Delivered method called when the delivery
	// ack returns (local operation completion) and its Abandoned method
	// when the fabric gives up on the message. Abandoned is only called
	// when a failure detector is attached: without one, loss stays
	// silent, as it was before the detector existed. A sender that
	// already owns a record for the operation passes the record and
	// builds no closure.
	Done Completion
}

// Send delivers payload to handler tag on image dst.
func (img *ImageKernel) Send(dst int, tag uint16, payload any, opts SendOpts) {
	img.send(img.message(dst, tag, payload, opts.Class, opts.Bytes), &opts)
}

// message takes a recycled outMsg and writes into it what every message
// from img to dst carries. The record is zero (Delivered clears it before
// it goes back), so what a send does not write stays unset.
func (img *ImageKernel) message(dst int, tag uint16, payload any, class fabric.Class, bytes int) *outMsg {
	o := img.k.outMsgs.New()
	o.img = img
	m := &o.msg
	m.Src, m.Dst, m.Bytes = int32(img.rank), fabric.Int32(dst), fabric.Int32(bytes)
	m.Tag, m.Class, m.Payload = tag, class, &o.env
	o.env.payload = payload
	return o
}

// send stamps the tracking context of opts' finish block into o's
// envelope, keeps the sender's completion and hands the message to the
// fabric.
func (img *ImageKernel) send(o *outMsg, opts *SendOpts) {
	if opts.Finish != 0 && img.k.tracker != nil {
		o.env.track = img.k.tracker.OnSend(img, opts.Finish)
	}
	o.msg.Path, o.user = opts.Path, opts.Done
	img.ep.Send(&o.msg, fabric.SendOpts{Injected: opts.Injected, Done: o, NoCoalesce: opts.NoCoalesce})
}

// FlushCoalesced flushes this image's fabric aggregation buffers — the
// barrier hook synchronization points above (finish, cofence, events,
// collectives, program exit) invoke. A no-op when coalescing is off.
func (img *ImageKernel) FlushCoalesced() { img.ep.FlushCoalesced() }

// Delivery is the receiving-side view of one message. It is a recycled
// record: a handler may keep it past its return only after Detach, and
// then only until Complete, which must be the last thing done with it.
type Delivery struct {
	Img     *ImageKernel // the destination image
	Src     int          // sender world rank
	Payload any
	Bytes   int

	track     Track
	rbox      TrackBox // the tracker's record on this image (OnReceive)
	detached  bool
	done      bool
	replied   bool
	inHandler bool // the handler has not returned yet
	dead      bool // released under sim.QuarantinePools
	replyID   uint64
	slot      *callSlot // a Call's wait slot; nil on a one-way message
}

func (d *Delivery) live() {
	if d.dead {
		panic("rt: Delivery used after its completion")
	}
}

// Track returns the message's (stamped) tracking context; the zero Track
// for an untracked message.
func (d *Delivery) Track() Track {
	d.live()
	return d.track
}

// Detach tells rt that completion will be signalled later via Complete —
// used by shipped functions that run as their own simulated process.
func (d *Delivery) Detach() {
	d.live()
	d.detached = true
}

// Complete signals completion of a detached delivery. Calling it twice,
// or on a non-detached delivery, panics. After the handler has returned
// it is the delivery's last reference: the record is released.
func (d *Delivery) Complete() {
	d.live()
	if !d.detached {
		panic("rt: Complete on non-detached delivery")
	}
	d.finishCompletion()
	if !d.inHandler {
		d.release()
	}
}

func (d *Delivery) finishCompletion() {
	if d.done {
		panic("rt: duplicate completion")
	}
	d.done = true
	if d.track.Tracked() {
		if tr := d.Img.k.tracker; tr != nil {
			tr.OnComplete(d.Img, d.Src, d.track, d.rbox)
		}
	}
}

func (d *Delivery) release() {
	k := d.Img.k
	*d = Delivery{}
	d.dead = k.deliveries.Put(d)
}

// CanReply reports whether the sender awaits a reply.
func (d *Delivery) CanReply() bool {
	d.live()
	return d.slot != nil && !d.replied
}

// Reply sends a response for a Call. Panics if the message was not a Call
// or was already replied to.
func (d *Delivery) Reply(payload any, bytes int) {
	d.live()
	if d.slot == nil {
		panic("rt: Reply to a one-way message")
	}
	if d.replied {
		panic("rt: duplicate Reply")
	}
	d.replied = true
	class := fabric.AMMedium
	if bytes > d.Img.k.fab.MaxMedium() {
		class = fabric.RDMA
	}
	o := d.Img.message(d.Src, tagReply, payload, class, bytes)
	o.env.replyID, o.env.slot = d.replyID, d.slot
	// The caller is parked on this reply: never coalesce it.
	d.Img.ep.Send(&o.msg, fabric.SendOpts{Done: o, NoCoalesce: true})
}

func (img *ImageKernel) dispatch(m *fabric.Msg, h Handler) {
	e := m.Payload.(*env)
	k := img.k
	d := k.deliveries.New()
	// The record is zero (release clears it), so the fields are written
	// once, in place.
	d.Img, d.Src, d.Payload, d.Bytes = img, int(m.Src), e.payload, int(m.Bytes)
	d.track, d.replyID, d.slot, d.inHandler = e.track, e.replyID, e.slot, true
	if e.track.Tracked() {
		if tr := k.tracker; tr != nil {
			d.rbox = tr.OnReceive(img, e.track)
		}
	}
	h(d)
	d.inHandler = false
	if !d.detached {
		d.finishCompletion()
	}
	if d.done {
		d.release()
	}
}

// callSlot is where a Call waits for its reply. The request carries the
// slot's pointer and the call's id to the callee and the reply brings
// both back; a reply whose id is not the slot's answers a call that is
// over (aborted, its slot released and perhaps taken by another call).
type callSlot struct {
	proc    *sim.Proc
	det     *failure.Detector
	id      uint64 // machine-wide unique; 0 while the slot is free
	payload any
	done    bool
}

// Wake is what the calling proc waits on: the reply, or a declared death.
func (w *callSlot) Wake() (string, bool) { return "rpc reply", !w.done && !w.det.AnyDead() }

// handleReply is the machine's tagReply handler: it answers the wait
// slot the reply names, on the image that sent the Call.
func (k *Kernel) handleReply(ep *fabric.Endpoint, m *fabric.Msg) {
	img := &k.images[ep.Rank()]
	e := m.Payload.(*env)
	w := e.slot
	if w.id != e.replyID || w.done {
		if img.k.det != nil {
			// With a failure detector, a Call can be aborted while its
			// reply is in flight from a still-live peer; the late reply
			// is dropped, not a protocol bug.
			return
		}
		panic(fmt.Sprintf("rt: image %d: reply for unknown call %d", img.rank, e.replyID))
	}
	w.payload = e.payload
	w.done = true
	w.proc.Unpark()
}

// Call performs a blocking request/reply round trip from process p on this
// image to handler tag on image dst, returning the reply payload. The
// handler must call Delivery.Reply (possibly later, from a detached proc).
// With a failure detector attached, a Call parked while any image is
// declared dead aborts via failure.Abort instead of hanging — the reply
// may depend on the dead image (a lock holder, a chained handler), and
// fail-stop semantics charge the whole blocked operation to the failure.
func (img *ImageKernel) Call(p *sim.Proc, dst int, tag uint16, payload any, opts SendOpts) any {
	k := img.k
	w := k.slots.New()
	k.nextCallID++
	w.proc, w.det, w.id = p, k.det, k.nextCallID
	o := img.message(dst, tag, payload, opts.Class, opts.Bytes)
	o.env.replyID, o.env.slot = w.id, w
	// This proc blocks until the reply: coalescing the request would
	// trade its latency for nothing.
	opts.NoCoalesce = true
	img.send(o, &opts)
	p.WaitWith(w)
	done, reply := w.done, w.payload
	*w = callSlot{}
	k.slots.Put(w)
	if !done {
		panic(failure.Abort{Err: k.det.ErrFor("rpc")})
	}
	return reply
}
