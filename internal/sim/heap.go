package sim

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

// event is a scheduled Event. Events with equal time run in schedule order
// (seq), which makes the simulation deterministic.
type event struct {
	at  Time
	seq uint64
	ev  Event
}

// eventHeap is a binary min-heap ordered by (at, seq). It is hand-rolled
// rather than using container/heap to avoid the interface boxing on the
// hot path: a large simulation schedules hundreds of millions of events.
type eventHeap struct {
	items []event
}

func (h *eventHeap) Len() int { return len(h.items) }

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e event) {
	h.items = appendDoubling(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items[n] = event{} // release the event for GC
	h.items = h.items[:n]
	h.siftDown(0)
	return top
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.items)
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
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
}

// peekTime reports the time of the earliest event, or Forever if empty.
func (h *eventHeap) peekTime() Time {
	if len(h.items) == 0 {
		return Forever
	}
	return h.items[0].at
}
