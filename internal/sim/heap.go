package sim

import "math/bits"

// Event is what a scheduled event runs. A record that already holds the
// state of the work it schedules (a proc, a message in transit, an inline
// shipped function) is the event itself, so queueing it allocates nothing
// and builds no closure over the record.
type Event interface {
	RunEvent()
}

// funcEvent makes a plain function an Event. A func value is pointer
// shaped, so the conversion allocates nothing.
type funcEvent func()

// RunEvent calls f.
func (f funcEvent) RunEvent() { f() }

// event is a scheduled Event in the far heap. Events with equal time run
// in schedule order (seq), which makes the simulation deterministic.
type event struct {
	at  Time
	seq uint64
	ev  Event
}

// horizon is the span of the near wheel in virtual nanoseconds: an event
// less than horizon after the queue's clock waits in the wheel, a later
// one in the far heap. Fabric legs, acks, handler service and wake-ups
// are scheduled a few fixed delays of at most about 1.5 µs ahead, with a
// tail to 2 µs; 4 096 covers them all, and 64 × 64 slots make the
// occupancy bitmap exactly two levels. Compute phases, wire legs queued
// behind a congested link and the 32 µs lifeline polls go far.
const (
	horizon     = 4096
	horizonMask = horizon - 1
)

// wheel is the near wheel's fixed part, made on the first near insert:
// the tail node of each slot's FIFO and the two-level occupancy bitmap.
// None of it holds a pointer, so the collector never scans it.
type wheel struct {
	tails [horizon]int32       // last node of the slot's circular list; 0: empty
	occ   [horizon / 64]uint64 // bit s%64 of word s/64: slot s is non-empty
	sum   uint64               // bit w: occ[w] != 0
}

// wheelNode is one pending near event: what it runs and the next node of
// its slot's circular list. It carries neither its time nor its seq.
type wheelNode struct {
	ev   Event
	next int32
}

// nodeChunk is a block of wheel nodes. The wheel's nodes live in chunks
// that are never copied or freed while the engine lives: an engine grows
// its node store once, to its peak, with no doubling's worth of copies
// left behind for the collector.
type nodeChunk [256]wheelNode

// eventHeap is the event queue: it pops events in exact (at, seq) order,
// where seq is the order of insert calls. It has two parts.
//
// The near wheel holds events less than horizon after now, the queue's
// clock: the time of the last pop, or the limit popUntil last stopped
// at, so always the engine's clock. It has one FIFO per virtual
// nanosecond, a slot for each at mod horizon. Pending near events all lie
// in [now, now+horizon), so a slot holds a single at, which the slot and
// now give back; and they enter it in seq order, so its FIFO order is seq
// order. A two-level bitmap finds the first non-empty slot after now's
// without a compare.
//
// The far heap is a binary min-heap ordered by (at, seq) for the rest.
// A far event never moves into the wheel: each pop takes the earlier of
// the two heads. When they share an at the far one goes first. It was
// inserted while at − now ≥ horizon, the near one while at − now <
// horizon, and now only grows, so the far one was inserted first and
// holds the smaller seq.
//
// The contract is the one Engine keeps: a time inserted is at or after
// now (Engine.schedule clamps to its clock, which equals now), and seqs
// increase. Every operation is a method on *eventHeap: the benchmark's
// profile fold charges the queue's cost to exactly these frames.
type eventHeap struct {
	now    Time
	w      *wheel
	chunks []*nodeChunk // node n is chunks[n>>8][n&255]; node 0 is unused, so 0 can mean none
	made   int32        // nodes taken from the chunks so far, node 0 included
	free   int32        // first released node, chained through next
	near   int          // events in the wheel
	far    []event      // the far heap
}

// Len reports how many events are pending.
func (h *eventHeap) Len() int { return h.near + len(h.far) }

// insert queues ev to run at at, which is not before now, with seq
// larger than every seq inserted before.
func (h *eventHeap) insert(at Time, seq uint64, ev Event) {
	if at-h.now >= horizon {
		h.push(event{at: at, seq: seq, ev: ev})
		return
	}
	n := h.free
	if n != 0 {
		h.free = h.node(n).next
	} else {
		n = h.newNode()
	}
	nd := h.node(n)
	nd.ev = ev
	w := h.w
	s := int(at) & horizonMask
	if t := w.tails[s]; t == 0 {
		nd.next = n
		w.occ[s>>6] |= 1 << (s & 63)
		w.sum |= 1 << (s >> 6)
	} else {
		tn := h.node(t)
		nd.next, tn.next = tn.next, n
	}
	w.tails[s] = n
	h.near++
}

// node returns node n.
func (h *eventHeap) node(n int32) *wheelNode { return &h.chunks[n>>8][n&255] }

// newNode takes a node that was never used, making the wheel on the
// first call and a chunk when the last one is used up.
func (h *eventHeap) newNode() int32 {
	if h.w == nil {
		h.w = new(wheel)
		h.made = 1
	}
	if int(h.made>>8) == len(h.chunks) {
		h.chunks = append(h.chunks, new(nodeChunk))
	}
	h.made++
	return h.made - 1
}

// popUntil removes and returns the earliest event if it is due at or
// before limit, which is not before now. If it is later, nothing is
// removed and now moves to limit; if the queue is empty, nothing changes.
func (h *eventHeap) popUntil(limit Time) (ev Event, at Time, ok bool) {
	s := -1
	at = Forever
	if h.near > 0 {
		s = h.nearSlot()
		at = h.now + Time((s-int(h.now))&horizonMask)
	}
	if len(h.far) > 0 && h.far[0].at <= at {
		at, s = h.far[0].at, -1
	} else if s < 0 {
		return nil, 0, false
	}
	if at > limit {
		h.now = limit
		return nil, 0, false
	}
	if s < 0 {
		ev = h.pop().ev
	} else {
		ev = h.popSlot(s)
	}
	h.now = at
	return ev, at, true
}

// nearSlot returns the first non-empty slot at or after now's, in ring
// order, which is time order. The wheel must not be empty.
func (h *eventHeap) nearSlot() int {
	w := h.w
	c := int(h.now) & horizonMask
	if m := w.occ[c>>6] >> (c & 63); m != 0 {
		return c + bits.TrailingZeros64(m)
	}
	// The words after c's, then around the ring to c's own word, whose
	// bits at or after c were just found empty.
	m := w.sum &^ (2<<(c>>6) - 1)
	if m == 0 {
		m = w.sum
	}
	i := bits.TrailingZeros64(m)
	return i<<6 + bits.TrailingZeros64(w.occ[i])
}

// popSlot removes and returns the first event of slot s, which is not
// empty, and releases its node.
func (h *eventHeap) popSlot(s int) Event {
	w := h.w
	t := w.tails[s]
	tn := h.node(t)
	first := tn.next
	fn := h.node(first)
	if first == t {
		w.tails[s] = 0
		w.occ[s>>6] &^= 1 << (s & 63)
		if w.occ[s>>6] == 0 {
			w.sum &^= 1 << (s >> 6)
		}
	} else {
		tn.next = fn.next
	}
	ev := fn.ev
	*fn = wheelNode{next: h.free} // release the event for GC
	h.free = first
	h.near--
	return ev
}

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.far[i], &h.far[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds e to the far heap, whatever its time.
func (h *eventHeap) push(e event) {
	h.far = appendDoubling(h.far, e)
	i := len(h.far) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.far[i], h.far[parent] = h.far[parent], h.far[i]
		i = parent
	}
}

// pop removes and returns the far heap's (at, seq)-earliest event.
func (h *eventHeap) pop() event {
	top := h.far[0]
	n := len(h.far) - 1
	h.far[0] = h.far[n]
	h.far[n] = event{} // release the event for GC
	h.far = h.far[:n]
	h.siftDown(0)
	return top
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.far)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		small := left
		if right := left + 1; right < n && h.less(right, left) {
			small = right
		}
		if !h.less(small, i) {
			return
		}
		h.far[i], h.far[small] = h.far[small], h.far[i]
		i = small
	}
}
