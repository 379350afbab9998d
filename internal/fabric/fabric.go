// Package fabric models the communication fabric of a distributed-memory
// machine on top of the sim engine: per-image network endpoints exchanging
// active messages with configurable one-way latency, injection bandwidth,
// handler occupancy, credit-based flow control, and delivery acknowledgements.
//
// It plays the role the Gemini interconnect + GASNet conduit played for
// CAF 2.0 on Jaguar/Hopper: everything above it (the CAF runtime,
// finish/cofence) only sees Send and handler callbacks.
//
// A Msg is one record from Send to its ack: the fabric keeps the
// message's transit state in it, schedules it as the event of its own
// arrival, handler dispatch and ack, and links it into the sender's credit
// queue while it waits for flow control, so a message in flight costs
// nothing beyond the record its sender made.
package fabric

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"caf2go/internal/metrics"
	"caf2go/internal/path"
	"caf2go/internal/sim"
)

// Class describes the message service level, mirroring GASNet's AM
// categories. Medium AMs have a bounded payload (the limit the paper notes
// caps UTS steals at 9 tree nodes); Long/RDMA transfers are unbounded.
type Class uint8

const (
	// AMShort is a header-only active message (control traffic).
	AMShort Class = iota
	// AMMedium is an active message with a bounded payload.
	AMMedium
	// RDMA is a one-sided bulk transfer (unbounded payload).
	RDMA
)

func (c Class) String() string {
	switch c {
	case AMShort:
		return "short"
	case AMMedium:
		return "medium"
	case RDMA:
		return "rdma"
	}
	return "?"
}

// Config sets the fabric cost model. The defaults (see DefaultConfig)
// resemble a Gemini-class torus NIC: ~1.5us latency, ~5GB/s effective
// injection bandwidth, sub-microsecond handler occupancy.
type Config struct {
	Latency     sim.Time // one-way wire latency between distinct images
	SelfLatency sim.Time // loopback latency (dst == src)
	GapPerByte  sim.Time // sender injection cost per payload byte
	AMOverhead  sim.Time // receiver-side handler dispatch occupancy
	MaxMedium   int      // AMMedium payload cap in bytes (0 ⇒ 512)
	Credits     int      // max un-acked sends per endpoint (0 ⇒ unlimited)
	// StallPenalty is an extra injection cost paid by each message that
	// had to queue for credits, modeling flow-control retry/backoff in
	// the conduit (the GASNet behaviour behind the paper's Fig. 14
	// anomaly, §IV-B).
	StallPenalty sim.Time
	// ImagesPerNode groups consecutive endpoints onto shared NICs: they
	// contend for one injection pipe and exchange intra-node messages at
	// SelfLatency — the paper's runs placed 8 images per node (§IV).
	// 0 or 1 means one NIC per image.
	ImagesPerNode int
	// Faults, when non-nil, injects deterministic packet loss,
	// duplication, reorder, receiver stalls, and NIC crashes (fault.go),
	// and switches the fabric onto its reliability protocol: sequence
	// numbers, receiver dedup, and ack-timeout retransmission. nil keeps
	// the idealized exactly-once transport, bit-identical to a fabric
	// built before fault injection existed. A fault plan is the one thing
	// that reorders a channel (retransmission alone does); see Ordered.
	Faults *FaultPlan
	// Coalescing, when non-zero, aggregates small AMs per destination
	// into batched wire packets (coalesce.go). The zero value keeps the
	// fabric bit-identical to one built before coalescing existed.
	Coalescing Coalescing
}

// DefaultConfig returns the cost model used by the benchmark harness.
func DefaultConfig() Config {
	return Config{
		Latency:     1500 * sim.Nanosecond,
		SelfLatency: 100 * sim.Nanosecond,
		GapPerByte:  sim.Time(1), // ≈1GB/s per byte-ns; scaled below
		AMOverhead:  300 * sim.Nanosecond,
		MaxMedium:   512,
		Credits:     64,
	}
}

// OrDefault returns c on DefaultConfig's cost model when c sets none of
// the cost-model fields. What c attaches to the fabric (Faults,
// Coalescing) is kept either way, so a config that only attaches runs on
// the default network.
func (c Config) OrDefault() Config {
	d := c
	d.Faults, d.Coalescing = nil, Coalescing{}
	if d != (Config{}) {
		return c
	}
	d = DefaultConfig()
	d.Faults, d.Coalescing = c.Faults, c.Coalescing
	return d
}

// Ordered reports whether the fabric delivers each (src, dst) channel in
// send order: it does unless a fault plan reorders the channel (jitter
// and retransmission both do). Without one, injection is serialized on
// the sender's NIC and a pair's latency is fixed, so arrivals on a pair
// come in send order whatever the cost model.
func (c Config) Ordered() bool { return c.Faults == nil }

// Msg is one message. Payload carries structured data by reference (the
// simulation shares one address space); Bytes is the modeled wire size
// used for bandwidth accounting and medium-AM limits. Ranks and the size
// are kept in 32 bits: a layer above converts at its boundary (and panics
// on a value that does not fit), so that a message in flight stays small.
//
// From Send until its ack (or abandonment) the message belongs to the
// fabric, which keeps the message's transit state in the record itself
// (DESIGN §4.14): a Msg is in flight at most once, and Send panics on a
// message that still is.
type Msg struct {
	Src, Dst int32
	Bytes    int32
	Tag      uint16
	Class    Class
	stage    stage // where the message is on its way; stageIdle when not sent
	// Path names the traced request whose causal path this message is
	// on (zero = untagged). The fabric claims the message's buffering,
	// stalling, and wire time against that request's decomposition.
	Path    path.Tag
	Payload any

	// The sender's completion record (SendOpts), held until it runs.
	injects  bool // the sender watches injection
	done     Completion
	src      *Endpoint // the sending endpoint; the transit event's way to its fabric
	next     *Msg      // the next message in the sender's credit queue
	queuedAt sim.Time  // when the message joined the credit queue
}

// Int32 is n as a Msg's 32-bit rank or size. A value that does not fit
// is a protocol bug, and panics here rather than wrapping on the wire.
func Int32(n int) int32 {
	if n != int(int32(n)) {
		badInt32(n)
	}
	return int32(n)
}

// badInt32 panics out of line, so that Int32 stays inlinable.
//
//go:noinline
func badInt32(n int) {
	panic(fmt.Sprintf("fabric: %d does not fit a message's 32-bit rank or size", n))
}

// takeOpts hands m back to its sender: m is idle again, and what is
// returned are the callbacks to run for it.
func (m *Msg) takeOpts() SendOpts {
	opts := SendOpts{Injected: m.injects, Done: m.done}
	m.stage, m.injects, m.done = stageIdle, false, nil
	return opts
}

// stage is where a message is between Send and the end of its ack.
type stage uint8

const (
	stageIdle     stage = iota // not in flight: free to Send
	stageBuffered              // in a coalescing buffer, or inside a batch
	stageQueued                // waiting for a flow-control credit
	stageArriving              // on the wire (idealized transport)
	stageHandling              // holding the receiver's handler context
	stageAcking                // its delivery ack is on the wire back
	stageReliable              // on the reliability protocol until acked or abandoned
)

// transit is a Msg as the Event of its own journey on the idealized
// transport: one record, scheduled three times, dispatching on its stage.
// The conversion keeps RunEvent out of Msg's exported method set.
type transit Msg

// injection is a Msg as the Event of its payload leaving the sender's
// NIC; it fires before the ack, while the Msg holds its sender's record.
type injection Msg

// RunEvent tells the sender its source buffer is reusable.
func (i *injection) RunEvent() { i.done.Injected() }

// Handler processes a delivered message on the destination endpoint. It
// runs as a simulation event on the receiving image's comm context.
type Handler func(ep *Endpoint, m *Msg)

// handlerTable maps a tag to its handler, machine-wide: one page of 256
// entries per high byte in use, so a lookup is two indexes and the dozen
// tags the runtime layers register cost three pages per machine.
type handlerTable [256]*[256]Handler

// lookup returns tag's handler, or nil.
func (t *handlerTable) lookup(tag uint16) Handler {
	if page := t[tag>>8]; page != nil {
		return page[tag&0xFF]
	}
	return nil
}

// bind sets tag's handler.
func (t *handlerTable) bind(tag uint16, fn Handler) {
	page := t[tag>>8]
	if page == nil {
		page = new([256]Handler)
		t[tag>>8] = page
	}
	page[tag&0xFF] = fn
}

// SendOpts carries the completion record of one Send, and how to send it.
type SendOpts struct {
	// Injected asks for Done.Injected when the payload has left the
	// source buffer (local data completion for the sender).
	Injected bool
	// Done is the sender's per-message record. Its Delivered fires on the
	// sender when the delivery ack returns (local operation completion).
	// Its Abandoned fires instead when the fabric gives up on the message
	// for good: the sending NIC was dead at injection, the destination NIC
	// was declared dead at an ack timeout, or the retransmission attempt
	// budget ran out. Exactly one of the two fires per logical message on
	// the reliable path; a message swallowed by a dead sender before the
	// reliable protocol engaged is abandoned too. Failure-aware layers use
	// Abandoned to charge off work resident on dead images instead of
	// waiting forever. nil runs nothing.
	Done Completion
	// NoCoalesce exempts the message from the coalescing buffer:
	// latency-critical control traffic (blocking RPCs and their replies,
	// event notifies, collective reductions) must not wait out a flush
	// timer. A NoCoalesce message still flushes its destination's buffer
	// first, preserving per-channel FIFO order.
	NoCoalesce bool
}

// Completion is a sender's per-message record, called back along the
// message's journey (see SendOpts).
type Completion interface {
	Injected()
	Delivered()
	Abandoned()
}

// delivered runs the delivery-ack callback of one logical message.
func (o *SendOpts) delivered() {
	if o.Done != nil {
		o.Done.Delivered()
	}
}

// abandoned runs the callback of a message the fabric gave up on.
func (o *SendOpts) abandoned() {
	if o.Done != nil {
		o.Done.Abandoned()
	}
}

// Stats aggregates fabric-wide counters. MsgsSent counts transmissions
// (retransmits included); the fault/reliability counters below it are all
// zero when Config.Faults is nil.
type Stats struct {
	MsgsSent    uint64
	BytesSent   uint64
	Acks        uint64
	HandlerRuns uint64
	CreditStall sim.Time // total virtual time messages waited for credits

	Retransmits    uint64 // transmissions beyond each message's first
	DupsDropped    uint64 // duplicate data deliveries suppressed by dedup
	DupAcks        uint64 // redundant acks ignored by the sender
	FaultsInjected uint64 // drops + duplications + stalls injected
	Dropped        uint64 // transmissions (data or ack) lost on the wire
	Duplicated     uint64 // deliveries duplicated on the wire
	Stalls         uint64 // receiver handler-context stalls injected
	Abandoned      uint64 // messages given up on (crash or attempts spent)

	// Coalescing counters (coalesce.go), all zero when Config.Coalescing
	// is the zero value. MsgsCoalesced counts inner messages that rode in
	// multi-message batches; each batch counts once in MsgsSent.
	MsgsCoalesced  uint64
	Flushes        uint64
	FlushBySize    uint64
	FlushByTimer   uint64
	FlushByBarrier uint64
}

// Fabric is a set of endpoints sharing one cost model and engine.
type Fabric struct {
	eng   *sim.Engine
	cfg   Config
	eps   []Endpoint // one slab: endpoints live as long as the fabric
	stats Stats

	// protos holds each endpoint's state for the optional protocols, by
	// rank; made only when the fabric runs one (a fault plan, coalescing).
	protos []epProtocol

	// handlers is the one handler table of the machine: every image runs
	// the same protocol, and a handler learns its image from its endpoint.
	handlers handlerTable

	// Fault-injection state (fault.go); reliable is cfg.Faults != nil,
	// ackTimeout the plan's base retransmission timeout.
	reliable   bool
	plan       FaultPlan
	ackTimeout sim.Time
	frng       *rand.Rand

	// Coalescing state (coalesce.go); coalescing is cfg.Coalescing
	// enabled, coal the defaulted thresholds.
	coalescing bool
	coal       Coalescing
	batches    sim.FreeList[batch]

	// The observability hooks Instrument attaches; nil records nothing.
	flushObs FlushObserver
	path     *path.Tracker

	// Metrics instruments, resolved once by Instrument (all nil — and
	// every call a no-op — without a registry).
	mLink        *metrics.Link
	mSendqPeak   *metrics.Gauge
	mCreditStall *metrics.Counter
	mBatchMsgs   *metrics.Histogram
	mFlushes     *metrics.Counter
}

// New builds a fabric with n endpoints (image 0..n-1).
func New(eng *sim.Engine, n int, cfg Config) *Fabric {
	if cfg.MaxMedium == 0 {
		cfg.MaxMedium = 512
	}
	f := &Fabric{eng: eng, cfg: cfg}
	if cfg.Coalescing.Enabled() {
		f.coalescing = true
		f.coal = cfg.Coalescing.withDefaults()
	}
	if cfg.Faults != nil {
		f.reliable = true
		f.plan = *cfg.Faults
		f.ackTimeout = f.plan.ackTimeout(cfg)
		f.frng = eng.DeriveRand(0x4641554C ^ f.plan.Seed)
	}
	if f.reliable || f.coalescing {
		f.protos = make([]epProtocol, n)
	}
	f.eps = make([]Endpoint, n)
	nics := make([]nicState, f.nodeOf(n-1)+1)
	for i := range f.eps {
		f.eps[i] = Endpoint{f: f, rank: i, nic: &nics[f.nodeOf(i)]}
	}
	return f
}

// Instrument attaches the fabric's observability hooks, each nil for
// none: obs hears of every coalescing flush (per-flush trace events), reg
// receives per-link traffic counters, queue depth high-water marks,
// credit-stall time and coalescing batch occupancy, and tracker receives
// critical-path bucket claims for messages carrying a request tag
// (Msg.Path): coalesce-hold time at flush, credit/retransmit stall time,
// and the wire leg at delivery. Call it before the first Send. The
// fabric's five metric families are registered here, so a caller that
// instruments the fabric first exports them first. No hook moves the
// schedule: the fabric stays bit-identical with or without them.
func (f *Fabric) Instrument(obs FlushObserver, reg *metrics.Registry, tracker *path.Tracker) {
	f.flushObs, f.path = obs, tracker
	f.mLink = reg.Link("caf_fabric_msgs_total", "wire packets sent per (image, peer) link",
		"caf_fabric_bytes_total", "payload bytes sent per (image, peer) link")
	f.mSendqPeak = reg.Gauge("caf_fabric_sendq_peak", "credit-stalled send queue high-water mark")
	f.mCreditStall = reg.Counter("caf_fabric_credit_stall_ns_total", "virtual time messages spent queued for injection credits")
	f.mBatchMsgs = reg.Histogram("caf_fabric_batch_msgs", "messages per coalesced wire packet")
	f.mFlushes = reg.Counter("caf_fabric_flushes_total", "coalescing buffer flushes")
}

// RegisterHandler binds tag to fn on every endpoint. Registering a tag
// twice panics: tags are a static protocol namespace owned by the
// runtime layers.
func (f *Fabric) RegisterHandler(tag uint16, fn Handler) {
	checkBatchTag(tag)
	if f.handlers.lookup(tag) != nil {
		panic(fmt.Sprintf("fabric: duplicate handler for tag %d", tag))
	}
	f.handlers.bind(tag, fn)
}

// claimPath attributes [cursor, now) of every tagged message inside m
// (fanning out through batches) to bucket b on the request tracker. A
// no-op without a tracker or for untagged messages.
func (f *Fabric) claimPath(m *Msg, b path.Bucket) {
	if f.path == nil {
		return
	}
	now := f.eng.Now()
	if m.Tag == tagBatch {
		for _, inner := range m.Payload.(*batch).msgs {
			f.path.ClaimTag(inner.Path, b, now)
		}
		return
	}
	f.path.ClaimTag(m.Path, b, now)
}

// claimPathDelivered claims each tagged message's own delivery bucket
// (Wire for ordinary AMs, ReplMirror for mirror writes) at dispatch.
func (f *Fabric) claimPathDelivered(m *Msg) {
	if f.path == nil {
		return
	}
	now := f.eng.Now()
	if m.Tag == tagBatch {
		for _, inner := range m.Payload.(*batch).msgs {
			f.path.ClaimTag(inner.Path, inner.Path.Bucket, now)
		}
		return
	}
	f.path.ClaimTag(m.Path, m.Path.Bucket, now)
}

// nicState is the injection pipe shared by the images of one node.
type nicState struct {
	free sim.Time // busy-until
}

// Endpoint returns endpoint i.
func (f *Fabric) Endpoint(i int) *Endpoint { return &f.eps[i] }

// Stats returns a snapshot of the fabric counters.
func (f *Fabric) Stats() Stats { return f.stats }

// MaxMedium reports the medium-AM payload cap in bytes.
func (f *Fabric) MaxMedium() int { return f.cfg.MaxMedium }

// nodeOf maps an endpoint rank to its NIC-sharing node.
func (f *Fabric) nodeOf(rank int) int {
	if f.cfg.ImagesPerNode <= 1 {
		return rank
	}
	return rank / f.cfg.ImagesPerNode
}

// wireLatency is the one-way latency between src and dst, of a message
// and of its delivery ack alike: an ack travels the wire its message
// did. Images on the same node talk over shared memory (SelfLatency).
func (f *Fabric) wireLatency(src, dst int) sim.Time {
	if f.nodeOf(src) == f.nodeOf(dst) {
		return f.cfg.SelfLatency
	}
	return f.cfg.Latency
}

// Endpoint is one image's attachment point to the fabric.
type Endpoint struct {
	f    *Fabric
	rank int
	nic  *nicState // injection pipe (shared across a node's images)

	recvFree sim.Time // receiver handler context busy-until

	outstanding int // un-acked sends (credit accounting)
	// Sends waiting for credits, oldest first, linked through Msg.next:
	// a stalled message costs the queue nothing beyond its own record.
	qhead, qtail *Msg
	queued       int

	// Per-endpoint counters. Sent counts transmissions (retransmits
	// included); Received counts unique deliveries (dups excluded).
	Sent     uint64
	Received uint64
}

// epProtocol is an endpoint's state for the fabric's optional protocols
// (Fabric.protos), kept apart so that an endpoint of a fabric that runs
// neither costs nothing for them.
type epProtocol struct {
	// Reliability-protocol state, used only when the fabric has a fault
	// plan: per destination, in destination order, the sequence numbers
	// and un-acked transmissions; per source, delivery dedup.
	peers []*txPeer
	dedup map[int]*dedupState

	// Per-destination aggregation buffers in destination order, used
	// only when the fabric has coalescing enabled (coalesce.go).
	coalesce []*coalesceBuf
}

// proto returns the endpoint's optional-protocol state; only valid on a
// fabric that runs a protocol.
func (ep *Endpoint) proto() *epProtocol { return &ep.f.protos[ep.rank] }

// txPeer is a sender's reliability state toward one destination.
type txPeer struct {
	dst     int
	nextSeq uint64
	pending []*txState // un-acked transmissions, in seq order
}

// peer returns the endpoint's state toward dst, creating it in
// destination order at the first send.
func (ep *Endpoint) peer(dst int) *txPeer {
	pr := ep.proto()
	i, ok := slices.BinarySearchFunc(pr.peers, dst, func(p *txPeer, dst int) int { return cmp.Compare(p.dst, dst) })
	if !ok {
		pr.peers = slices.Insert(pr.peers, i, &txPeer{dst: dst})
	}
	return pr.peers[i]
}

// forget drops tx from its peer's pending list once it is acked or
// abandoned.
func (p *txPeer) forget(tx *txState) {
	i, _ := slices.BinarySearchFunc(p.pending, tx.seq, func(t *txState, seq uint64) int { return cmp.Compare(t.seq, seq) })
	p.pending = slices.Delete(p.pending, i, i+1)
}

// txState tracks one logical message from first injection until its ack
// lands (or the sender gives up).
type txState struct {
	m         *Msg
	opts      SendOpts
	peer      *txPeer
	seq       uint64
	attempts  int
	acked     bool
	abandoned bool
	timer     *sim.Timer
}

// Rank returns the endpoint's image index.
func (ep *Endpoint) Rank() int { return ep.rank }

// RegisterHandler binds tag to fn on every endpoint of the fabric, as
// Fabric.RegisterHandler does: handlers are per machine. Registering a
// tag twice, from this endpoint or any other, panics.
func (ep *Endpoint) RegisterHandler(tag uint16, fn Handler) { ep.f.RegisterHandler(tag, fn) }

// Send initiates an active message from this endpoint. It never blocks:
// if flow-control credits are exhausted the message queues locally and
// the caller learns about progress only through opts callbacks. Send
// panics if m is still in flight from an earlier Send, if its size is
// negative, if a medium AM exceeds the fabric payload cap or if the tag
// has no handler at the destination — all protocol bugs, not runtime
// conditions.
func (ep *Endpoint) Send(m *Msg, opts SendOpts) {
	if m.stage != stageIdle {
		panic(fmt.Sprintf("fabric: %s message with tag %d sent while still in flight", m.Class, m.Tag))
	}
	if m.Bytes < 0 {
		panic(fmt.Sprintf("fabric: %s message with tag %d has negative size %d", m.Class, m.Tag, m.Bytes))
	}
	if m.Class == AMMedium && int(m.Bytes) > ep.f.cfg.MaxMedium {
		panic(fmt.Sprintf("fabric: medium AM of %d bytes exceeds cap %d", m.Bytes, ep.f.cfg.MaxMedium))
	}
	if int(m.Src) != ep.rank {
		panic(fmt.Sprintf("fabric: message src %d sent from endpoint %d", m.Src, ep.rank))
	}
	if m.Dst < 0 || int(m.Dst) >= len(ep.f.eps) {
		panic(fmt.Sprintf("fabric: message dst %d out of range [0,%d)", m.Dst, len(ep.f.eps)))
	}
	if ep.f.handlers.lookup(m.Tag) == nil {
		panic(fmt.Sprintf("fabric: no handler for tag %d at endpoint %d", m.Tag, m.Dst))
	}
	m.injects, m.done = opts.Injected, opts.Done
	if ep.f.coalescing {
		if ep.coalescible(m, opts.NoCoalesce) {
			ep.enqueueCoalesced(m)
			return
		}
		// A non-coalescible message must not overtake buffered traffic
		// on its own channel: flush that destination first.
		if i, ok := ep.coalesceAt(int(m.Dst)); ok {
			ep.flush(ep.proto().coalesce[i], FlushByBarrier)
		}
	}
	ep.post(m)
}

// post is the transport tail of Send, shared with the coalescing flush
// path: crash gate, flow-control credits, then the reliable or idealized
// injection path. Validation already happened (in Send, per inner message
// for batches), and m holds its sender's callbacks.
func (ep *Endpoint) post(m *Msg) {
	if ep.f.reliable && ep.f.crashedNow(ep.rank) {
		// A dead NIC injects nothing; the message vanishes with no
		// success callback — supervising layers must never conclude
		// success from silence. Done.Abandoned (if any) still fires so
		// failure-aware layers can account for the loss.
		ep.f.stats.Abandoned++
		opts := m.takeOpts()
		opts.abandoned()
		return
	}
	if ep.f.cfg.Credits > 0 && ep.outstanding >= ep.f.cfg.Credits {
		m.stage, m.queuedAt = stageQueued, ep.f.eng.Now()
		if ep.qtail == nil {
			ep.qhead = m
		} else {
			ep.qtail.next = m
		}
		ep.qtail = m
		ep.queued++
		ep.f.mSendqPeak.SetMax(ep.rank, int64(ep.queued))
		return
	}
	if ep.f.reliable {
		ep.startTx(m)
		return
	}
	ep.inject(m)
}

// QueuedSends reports how many messages are stalled waiting for credits.
func (ep *Endpoint) QueuedSends() int { return ep.queued }

// PendingRetx reports how many logical messages are in flight on the
// reliability protocol (sent, not yet acked or abandoned). Always 0 on
// a fault-free fabric.
func (ep *Endpoint) PendingRetx() int {
	if !ep.f.reliable {
		return 0
	}
	n := 0
	for _, p := range ep.proto().peers {
		n += len(p.pending)
	}
	return n
}

// Outstanding reports un-acked sends currently counted against credits.
func (ep *Endpoint) Outstanding() int { return ep.outstanding }

func (ep *Endpoint) inject(m *Msg) {
	f := ep.f
	eng := f.eng
	now := eng.Now()

	ep.outstanding++
	ep.Sent++
	f.stats.MsgsSent++
	f.stats.BytesSent += uint64(m.Bytes)
	f.mLink.Add(int(m.Src), int(m.Dst), int64(m.Bytes))

	// Serialize injection on the sender NIC.
	start := now
	if ep.nic.free > start {
		start = ep.nic.free
	}
	injected := start + sim.Time(m.Bytes)*f.cfg.GapPerByte
	ep.nic.free = injected

	if m.injects {
		eng.AtEvent(injected, (*injection)(m))
	}

	// Injection is serialized on the NIC, the wire latency is a function
	// of the pair alone and the clock never goes back, so arrivals on a
	// pair come in send order (Config.Ordered).
	arrival := injected + f.wireLatency(int(m.Src), int(m.Dst))

	m.stage, m.src = stageArriving, ep
	eng.AtEvent(arrival, (*transit)(m))
}

// RunEvent runs the message's next event on the idealized transport:
// arrival at the destination, where it claims the receiver's handler
// context; the end of that occupancy, where the handler runs and the ack
// leaves; and the ack's landing on the sender, which releases the credit
// and, before any callback runs, hands the message back to its owner. The
// reliability protocol does not come here: a duplicate or a
// retransmission can arrive after the ack.
func (t *transit) RunEvent() {
	m := (*Msg)(t)
	src := m.src
	f := src.f
	eng := f.eng
	switch m.stage {
	case stageArriving:
		dst := &f.eps[m.Dst]
		done := max(eng.Now(), dst.recvFree) + f.cfg.AMOverhead
		dst.recvFree = done
		m.stage = stageHandling
		eng.AtEvent(done, t)
	case stageHandling:
		f.eps[m.Dst].dispatch(m)
		m.stage = stageAcking
		eng.AtEvent(eng.Now()+f.wireLatency(int(m.Dst), int(m.Src)), t)
	case stageAcking:
		f.stats.Acks++
		src.outstanding--
		opts := m.takeOpts()
		opts.delivered()
		src.drainQueue()
	default:
		panic(fmt.Sprintf("fabric: transit event for a %s message with tag %d that is not on the wire", m.Class, m.Tag))
	}
}

// popQueued takes the oldest credit-stalled message off the queue.
func (ep *Endpoint) popQueued() *Msg {
	m := ep.qhead
	ep.qhead, m.next = m.next, nil
	if ep.qhead == nil {
		ep.qtail = nil
	}
	ep.queued--
	return m
}

// drainQueue launches stalled sends as credits free up. Each stalled
// message pays the flow-control penalty on its way out.
func (ep *Endpoint) drainQueue() {
	f := ep.f
	for ep.qhead != nil && (f.cfg.Credits == 0 || ep.outstanding < f.cfg.Credits) {
		m := ep.popQueued()
		stall := f.eng.Now() - m.queuedAt
		f.stats.CreditStall += stall
		f.mCreditStall.Add(ep.rank, int64(stall))
		f.claimPath(m, path.CreditStall)
		if f.cfg.StallPenalty > 0 {
			ep.nic.free += f.cfg.StallPenalty
		}
		if f.reliable {
			ep.startTx(m)
		} else {
			ep.inject(m)
		}
	}
}

// ---------------------------------------------------------------------
// Reliability protocol (active only with a fault plan, see fault.go).
//
// Sequence numbers per (src,dst) pair, receiver-side dedup, and
// ack-timeout retransmission turn the lossy faulty wire back into an
// exactly-once transport for the layers above: the handler runs once per
// logical message and Done.Delivered fires once per logical message, no
// matter how many transmissions, duplications, or lost acks it took.
// ---------------------------------------------------------------------

// startTx assigns the next sequence number toward m.Dst, takes a credit,
// and performs the first transmission. The callbacks move from m to the
// transmission.
func (ep *Endpoint) startTx(m *Msg) {
	p := ep.peer(int(m.Dst))
	tx := &txState{m: m, opts: m.takeOpts(), peer: p, seq: p.nextSeq}
	m.stage = stageReliable
	p.nextSeq++
	p.pending = append(p.pending, tx)
	ep.outstanding++
	tx.timer = ep.f.eng.NewTimer(func() { ep.onAckTimeout(tx) })
	ep.transmit(tx)
}

// retransmitAfter is the ack timeout for the given attempt number:
// exponential backoff on the plan's base, capped at backoffCap doublings.
func (f *Fabric) retransmitAfter(attempts int) sim.Time {
	return f.ackTimeout << uint(min(attempts-1, backoffCap))
}

// transmit performs one (re)transmission of tx: it pays the injection
// cost, arms the ack timer, and — faults permitting — schedules delivery.
func (ep *Endpoint) transmit(tx *txState) {
	f := ep.f
	eng := f.eng
	m := tx.m
	tx.attempts++
	if tx.attempts > 1 {
		f.stats.Retransmits++
		// The gap a lost packet cost the request is a flow-control
		// stall: claim it at the moment the retransmission goes out.
		f.claimPath(m, path.CreditStall)
	}
	ep.Sent++
	f.stats.MsgsSent++
	f.stats.BytesSent += uint64(m.Bytes)
	f.mLink.Add(int(m.Src), int(m.Dst), int64(m.Bytes))

	// Serialize injection on the sender NIC (every attempt pays again).
	start := eng.Now()
	if ep.nic.free > start {
		start = ep.nic.free
	}
	injected := start + sim.Time(m.Bytes)*f.cfg.GapPerByte
	ep.nic.free = injected
	if tx.attempts == 1 && tx.opts.Injected {
		eng.At(injected, tx.opts.Done.Injected)
	}

	// Arm the retransmission timer from the moment the payload is on the
	// wire, with this attempt's backoff.
	tx.timer.Reset(injected - eng.Now() + f.retransmitAfter(tx.attempts))

	// Wire faults: loss first, then duplication/jitter on what survives.
	if f.roll(f.plan.Drop) {
		f.stats.Dropped++
		f.stats.FaultsInjected++
		return // lost; the ack timer recovers
	}
	dst := &f.eps[m.Dst]
	base := injected + f.wireLatency(int(m.Src), int(m.Dst))
	eng.At(base+f.jitterDelay(), func() { dst.deliverReliable(tx, ep) })
	if f.roll(f.plan.Dup) {
		f.stats.Duplicated++
		f.stats.FaultsInjected++
		eng.At(base+f.jitterDelay(), func() { dst.deliverReliable(tx, ep) })
	}
}

// onAckTimeout fires when a transmission's ack did not return in time:
// retransmit, or abandon if the peer (or this NIC) is dead or the attempt
// budget is spent.
func (ep *Endpoint) onAckTimeout(tx *txState) {
	if tx.acked || tx.abandoned {
		return
	}
	f := ep.f
	if f.crashedNow(ep.rank) || f.crashedNow(int(tx.m.Dst)) || tx.attempts >= maxAttempts {
		tx.abandoned = true
		tx.m.stage = stageIdle
		f.stats.Abandoned++
		tx.peer.forget(tx)
		// Release the flow-control credit so unrelated traffic keeps
		// moving, but fire no success callback: the supervising layer
		// must observe the loss (a finish block will simply never
		// terminate — the never-early side of Theorem 1). Done.Abandoned
		// is the explicit loss notification for failure-aware layers.
		ep.outstanding--
		tx.opts.abandoned()
		ep.drainQueue()
		return
	}
	ep.transmit(tx)
}

// AbandonForDead abandons, immediately and deterministically, every
// pending reliable transmission that can no longer succeed because rank
// is dead: rank's own un-acked sends (its NIC can neither retransmit nor
// hear acks) and every other endpoint's un-acked sends toward rank. The
// failure layer calls this at declaration time so charge-off callbacks
// fire promptly instead of trickling out of backed-off ack timeouts.
// Endpoints are walked in rank order and each endpoint's victims in
// (dst, seq) order, so the Abandoned callback order is reproducible.
func (f *Fabric) AbandonForDead(rank int) {
	if !f.reliable {
		return
	}
	for i := range f.eps {
		ep := &f.eps[i]
		var victims []*txState
		for _, p := range ep.proto().peers {
			if ep.rank == rank || p.dst == rank {
				victims = append(victims, p.pending...)
			}
		}
		if len(victims) == 0 && (ep.rank != rank || ep.QueuedSends() == 0) {
			continue
		}
		for _, tx := range victims {
			tx.abandoned = true
			tx.m.stage = stageIdle
			tx.timer.Stop()
			f.stats.Abandoned++
			tx.peer.forget(tx)
			ep.outstanding--
			tx.opts.abandoned()
		}
		if ep.rank == rank {
			// The dead endpoint's credit-stalled queue can never inject:
			// abandon it outright rather than draining it into a dead NIC.
			for ep.qhead != nil {
				m := ep.popQueued()
				opts := m.takeOpts()
				f.stats.Abandoned++
				opts.abandoned()
			}
			continue
		}
		ep.drainQueue()
	}
}

// deliverReliable runs at (possibly duplicated, possibly reordered)
// message arrival on the destination endpoint: dedup decides whether the
// handler runs; an ack is returned either way so the sender stops
// retransmitting even when its first ack was lost.
func (ep *Endpoint) deliverReliable(tx *txState, src *Endpoint) {
	m := tx.m
	f := ep.f
	eng := f.eng
	if f.crashedNow(ep.rank) {
		return // dead NIC: arriving packets vanish
	}
	handlerAt := eng.Now()
	if f.roll(f.plan.StallProb) {
		f.stats.Stalls++
		f.stats.FaultsInjected++
		stallFrom := ep.recvFree
		if handlerAt > stallFrom {
			stallFrom = handlerAt
		}
		ep.recvFree = stallFrom + f.plan.Stall
	}
	if ep.recvFree > handlerAt {
		handlerAt = ep.recvFree
	}
	done := handlerAt + f.cfg.AMOverhead
	ep.recvFree = done

	eng.At(done, func() {
		pr := ep.proto()
		if pr.dedup == nil {
			pr.dedup = make(map[int]*dedupState)
		}
		d := pr.dedup[src.rank]
		if d == nil {
			d = &dedupState{}
			pr.dedup[src.rank] = d
		}
		if d.mark(tx.seq) {
			ep.dispatch(m)
		} else {
			f.stats.DupsDropped++
		}

		// Ack back to the sender — also for dups, since the duplicate may
		// be a retransmission whose original ack was lost. The ack is a
		// packet too: it can be dropped.
		if f.roll(f.plan.Drop) {
			f.stats.Dropped++
			f.stats.FaultsInjected++
			return
		}
		// The ack leg reads the two ranks off the endpoints, not off m:
		// a duplicate lands after the first ack, which released m.
		eng.At(eng.Now()+f.wireLatency(ep.rank, src.rank), func() { src.onAckArrival(tx) })
	})
}

// onAckArrival processes a delivery ack on the sender. Exactly the first
// ack per logical message releases the credit and fires Done.Delivered;
// redundant acks (from dups or retransmissions) are counted and ignored.
func (ep *Endpoint) onAckArrival(tx *txState) {
	f := ep.f
	if f.crashedNow(ep.rank) {
		return
	}
	if tx.acked || tx.abandoned {
		f.stats.DupAcks++
		return
	}
	tx.acked = true
	tx.m.stage = stageIdle
	tx.timer.Stop()
	tx.peer.forget(tx)
	f.stats.Acks++
	ep.outstanding--
	tx.opts.delivered()
	ep.drainQueue()
}
