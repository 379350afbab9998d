package fabric

import (
	"cmp"
	"fmt"
	"slices"

	"caf2go/internal/path"
	"caf2go/internal/sim"
)

// Adaptive message coalescing.
//
// Fine-grained algorithms (RandomAccess updates, work-stealing spawns)
// inject storms of tiny active messages whose cost is dominated by
// per-message overheads: wire headers, handler dispatch occupancy, acks,
// and flow-control credits. The coalescing layer aggregates small AMs
// headed for the same destination into one wire packet, flushed when the
// aggregation buffer fills (size), when the oldest buffered message has
// waited FlushAfter of virtual time (timer), or when a synchronization
// point above demands the wire be empty (barrier).
//
// A batch is ONE logical message to the transport: it consumes one
// flow-control credit and — under a fault plan — one sequence number, so
// a dropped or duplicated batch retransmits and dedups as a unit while
// every inner handler still runs exactly once. FIFO per (src,dst) is
// preserved: a non-coalescible send to a destination first flushes that
// destination's buffer, so nothing ever overtakes a buffered message on
// its own channel.
//
// With a zero-valued Coalescing config the layer is inert and the fabric
// is bit-identical to one built before coalescing existed (the same
// contract Config.Faults == nil makes for the reliability protocol).

// Coalescing configures the aggregation layer. The zero value disables
// coalescing entirely; any non-zero value enables it, with unset fields
// taking the defaults noted on each field.
type Coalescing struct {
	// MaxBytes flushes a destination's buffer once the inner payload
	// bytes reach this threshold (default 4096).
	MaxBytes int
	// MaxMsgs flushes a destination's buffer once it holds this many
	// messages (default 16).
	MaxMsgs int
	// FlushAfter bounds how long the oldest buffered message may wait
	// before a timer flush (default 10us of virtual time). It is the
	// latency price of coalescing; size-triggered flushes never wait.
	FlushAfter sim.Time
}

// mediumCutoff is the largest AMMedium payload that coalesces. AMShort
// always coalesces; RDMA never does.
const mediumCutoff = 128

// Enabled reports whether the config turns coalescing on.
func (c Coalescing) Enabled() bool { return c != Coalescing{} }

// withDefaults fills unset fields of an enabled config.
func (c Coalescing) withDefaults() Coalescing {
	if c.MaxBytes == 0 {
		c.MaxBytes = 4096
	}
	if c.MaxMsgs == 0 {
		c.MaxMsgs = 16
	}
	if c.FlushAfter == 0 {
		c.FlushAfter = 10 * sim.Microsecond
	}
	return c
}

// FlushReason says why an aggregation buffer was flushed.
type FlushReason uint8

const (
	// FlushBySize: the buffer reached MaxBytes or MaxMsgs.
	FlushBySize FlushReason = iota
	// FlushByTimer: the oldest buffered message waited FlushAfter.
	FlushByTimer
	// FlushByBarrier: a synchronization point (finish, cofence, event,
	// collective, program exit) or a non-coalescible message on the same
	// channel forced the buffer out.
	FlushByBarrier
)

func (r FlushReason) String() string {
	switch r {
	case FlushBySize:
		return "size"
	case FlushByTimer:
		return "timer"
	case FlushByBarrier:
		return "barrier"
	}
	return "?"
}

// FlushObserver is notified of every coalescing flush (tracing hook; see
// Fabric.Instrument).
type FlushObserver interface {
	CoalesceFlush(src, dst, msgs, bytes int, reason FlushReason, now sim.Time)
}

// tagBatch marks an aggregated wire packet. It is reserved: batches are
// recognized by tag + payload type in dispatch and never hit the handler
// table.
const tagBatch uint16 = 0xFFFE

// batch is one aggregated wire packet: the packet itself, whose payload
// and completion are the batch, and the inner messages it carries. The
// batch injecting/acking IS every inner message injecting/acking. Each
// inner message keeps its own SendOpts, in order. A batch is recycled
// through Fabric.batches with its msgs array, which the next flush hands
// to its buffer, so neither a flush nor a buffer allocates once warm.
type batch struct {
	msg  Msg
	msgs []*Msg
	f    *Fabric
	dead bool // released under sim.QuarantinePools
}

func (b *batch) live() {
	if b.dead {
		panic("fabric: coalesced batch used after its ack released it")
	}
}

// Injected runs the Injected of each inner message that asked for it.
func (b *batch) Injected() {
	b.live()
	for _, m := range b.msgs {
		if m.injects {
			m.done.Injected()
		}
	}
}

// Delivered hands each inner message back to its owner and runs its
// delivery callbacks. On the idealized transport the ack is the packet's
// last event (every inner handler ran before it left), so the batch is
// released at its end. Under a fault plan it is left to the GC: a
// duplicate of the packet can still arrive, and the receiver's dedup
// window can still hold it.
func (b *batch) Delivered() {
	b.live()
	for _, m := range b.msgs {
		opts := m.takeOpts()
		opts.delivered()
	}
	f := b.f
	if f.reliable {
		return
	}
	clear(b.msgs)
	*b = batch{msgs: b.msgs[:0]}
	b.dead = f.batches.Put(b)
}

// Abandoned is Delivered for a batch the fabric gave up on; only a fabric
// with a fault plan does, so the batch is never released.
func (b *batch) Abandoned() {
	b.live()
	for _, m := range b.msgs {
		opts := m.takeOpts()
		opts.abandoned()
	}
}

// coalesceBuf is the per-destination aggregation buffer of one endpoint.
type coalesceBuf struct {
	dst   int
	msgs  []*Msg
	bytes int
	timer *sim.Timer
}

// coalesceAt finds dst's buffer in the endpoint's coalescing buffers, or
// where it would go.
func (ep *Endpoint) coalesceAt(dst int) (int, bool) {
	return slices.BinarySearchFunc(ep.proto().coalesce, dst, func(b *coalesceBuf, dst int) int { return cmp.Compare(b.dst, dst) })
}

// coalescible reports whether m, sent with or without SendOpts.NoCoalesce,
// may enter the aggregation buffer. Loopback traffic is excluded:
// SelfLatency is already cheaper than any batching gain and buffering it
// only adds FlushAfter of latency.
func (ep *Endpoint) coalescible(m *Msg, noCoalesce bool) bool {
	if !ep.f.coalescing || noCoalesce || int(m.Dst) == ep.rank {
		return false
	}
	switch m.Class {
	case AMShort:
		return true
	case AMMedium:
		return int(m.Bytes) <= mediumCutoff
	}
	return false
}

// enqueueCoalesced buffers m toward its destination and flushes if the
// buffer crossed a size threshold.
func (ep *Endpoint) enqueueCoalesced(m *Msg) {
	pr := ep.proto()
	i, ok := ep.coalesceAt(int(m.Dst))
	if !ok {
		pr.coalesce = slices.Insert(pr.coalesce, i, &coalesceBuf{dst: int(m.Dst)})
	}
	b := pr.coalesce[i]
	if len(b.msgs) == 0 {
		if b.timer == nil {
			b.timer = ep.f.eng.NewTimer(func() { ep.flush(b, FlushByTimer) })
		}
		b.timer.Reset(ep.f.coal.FlushAfter)
	}
	m.stage = stageBuffered
	b.msgs = append(b.msgs, m)
	b.bytes += int(m.Bytes)
	if b.bytes >= ep.f.coal.MaxBytes || len(b.msgs) >= ep.f.coal.MaxMsgs {
		ep.flush(b, FlushBySize)
	}
}

// flush empties the aggregation buffer b, posting its content as one
// batch packet (or as a plain message when only one is buffered).
func (ep *Endpoint) flush(b *coalesceBuf, reason FlushReason) {
	if len(b.msgs) == 0 {
		return
	}
	dst := b.dst
	msgs, bytes := b.msgs, b.bytes
	b.msgs, b.bytes = nil, 0
	b.timer.Stop()

	f := ep.f
	f.stats.Flushes++
	f.mFlushes.Add(ep.rank, 1)
	f.mBatchMsgs.Observe(ep.rank, int64(len(msgs)))
	switch reason {
	case FlushBySize:
		f.stats.FlushBySize++
	case FlushByTimer:
		f.stats.FlushByTimer++
	case FlushByBarrier:
		f.stats.FlushByBarrier++
	}
	if f.flushObs != nil {
		f.flushObs.CoalesceFlush(ep.rank, dst, len(msgs), bytes, reason, f.eng.Now())
	}
	if f.path != nil {
		// Time spent in the buffer is the latency price of coalescing:
		// claim it for every tagged inner message at the flush.
		now := f.eng.Now()
		for _, m := range msgs {
			f.path.ClaimTag(m.Path, path.CoalesceHold, now)
		}
	}

	if f.reliable && f.crashedNow(ep.rank) {
		// The NIC died while the messages sat in the buffer: they vanish
		// without completion callbacks, exactly as an un-coalesced send
		// on a dead NIC would.
		f.stats.Abandoned += uint64(len(msgs))
		for _, m := range msgs {
			m.takeOpts()
		}
		return
	}

	if len(msgs) == 1 {
		// A batch of one buys nothing; send it plain.
		ep.post(msgs[0])
		return
	}

	f.stats.MsgsCoalesced += uint64(len(msgs))
	// The batch comes off its free list zeroed but for the array of its
	// last use, which the buffer takes in exchange for msgs.
	bt := f.batches.New()
	bt.f = f
	b.msgs, bt.msgs = bt.msgs, msgs
	bm := &bt.msg
	bm.Src, bm.Dst, bm.Bytes = int32(ep.rank), int32(dst), Int32(bytes)
	bm.Tag, bm.Class, bm.Payload, bm.done = tagBatch, AMMedium, bt, bt
	for _, m := range msgs {
		if m.injects {
			// Only a batch with something to run at injection schedules it.
			bm.injects = true
			break
		}
	}
	ep.post(bm)
}

// FlushCoalesced flushes every non-empty aggregation buffer of this
// endpoint, in destination order. Synchronization points above the
// fabric — finish, cofence, events, collectives, program exit — call
// this so nothing lingers in a buffer across a barrier. A no-op when
// coalescing is off.
func (ep *Endpoint) FlushCoalesced() {
	if !ep.f.coalescing {
		return
	}
	for _, b := range ep.proto().coalesce {
		ep.flush(b, FlushByBarrier)
	}
}

// CoalescedPending reports how many messages sit in this endpoint's
// aggregation buffers (tests and diagnostics).
func (ep *Endpoint) CoalescedPending() int {
	if !ep.f.coalescing {
		return 0
	}
	n := 0
	for _, b := range ep.proto().coalesce {
		n += len(b.msgs)
	}
	return n
}

// dispatch runs the handler(s) for a delivered wire packet: a batch fans
// out to its inner messages in FIFO order, each counting as one unique
// delivery; a plain message runs its single handler. Both the handling
// stage of a transit event (the idealized path) and deliverReliable (the
// fault path) funnel through here, so an inner handler runs exactly once
// per logical message no matter how the packet travelled.
func (ep *Endpoint) dispatch(m *Msg) {
	ep.f.claimPathDelivered(m)
	if m.Tag == tagBatch {
		b := m.Payload.(*batch)
		b.live()
		for _, inner := range b.msgs {
			ep.Received++
			ep.f.stats.HandlerRuns++
			ep.f.handlers.lookup(inner.Tag)(ep, inner)
		}
		return
	}
	ep.Received++
	ep.f.stats.HandlerRuns++
	ep.f.handlers.lookup(m.Tag)(ep, m)
}

// checkBatchTag guards the reserved batch tag in RegisterHandler.
func checkBatchTag(tag uint16) {
	if tag == tagBatch {
		panic(fmt.Sprintf("fabric: tag %#x is reserved for message coalescing", tag))
	}
}
