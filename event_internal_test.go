package caf

// White-box regression tests for the event-state queue of waiting
// copies: a copy gated on the event must consume exactly one post, never
// start twice across release/re-post cycles, and the drained queue must
// not retain consumed copies through its backing array.

import (
	"testing"

	"caf2go/internal/race"
	"caf2go/internal/rt"
)

// waitingCopy is a copy gated on e, as the event's queue sees it: posted
// is what consuming a post starts.
type waitingCopy struct {
	e      *Event
	posted func()
}

func (w *waitingCopy) atSource(*rt.Delivery) {}
func (w *waitingCopy) atDest(*rt.Delivery)   {}
func (w *waitingCopy) predicate() *Event     { return w.e }
func (w *waitingCopy) predPosted(race.Clock) { w.posted() }
func (w *waitingCopy) start()                {}

// whenPosted queues a copy gated on e that runs fn when it consumes a
// post.
func whenPosted(m *Machine, e *Event, fn func()) { m.whenPosted(e, &waitingCopy{e, fn}) }

// held counts the copies the queue's backing array still refers to.
func held(es *eventState) int {
	n := 0
	for _, c := range es.preds[:cap(es.preds)] {
		if c != nil {
			n++
		}
	}
	return n
}

// withImage runs body on a single-image machine and fails the test on
// any simulation error.
func withImage(t *testing.T, body func(img *Image)) {
	t.Helper()
	m := NewMachine(Config{Images: 1, Seed: 1})
	m.Launch(body)
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
}

func TestEventCallbackConsumesOnePostExactly(t *testing.T) {
	withImage(t, func(img *Image) {
		m := img.m
		e := img.NewEvent()
		es := m.eventState(e)
		fired := 0
		whenPosted(m, e, func() { fired++ })

		// Two posts: the single waiting copy consumes the first, the second
		// must remain as a plain pending count — not re-start the stale
		// copy.
		m.post(e)
		m.post(e)
		if fired != 1 {
			t.Errorf("waiting copy started %d times, want 1", fired)
		}
		if es.count != 1 {
			t.Errorf("pending count %d after 2 posts / 1 copy, want 1", es.count)
		}
		if n := held(es); n != 0 {
			t.Errorf("drained queue retains %d copies; backing array leaked", n)
		}
		if !img.EventTryWait(e) || img.EventTryWait(e) {
			t.Error("surviving post not consumable exactly once")
		}
	})
}

func TestEventCallbacksDrainInOrderAcrossPosts(t *testing.T) {
	withImage(t, func(img *Image) {
		m := img.m
		e := img.NewEvent()
		es := m.eventState(e)
		var order []int
		whenPosted(m, e, func() { order = append(order, 1) })
		whenPosted(m, e, func() { order = append(order, 2) })

		m.post(e)
		if len(order) != 1 || order[0] != 1 {
			t.Fatalf("after first post, fired %v, want [1]", order)
		}
		if len(es.preds) != 1 {
			t.Fatalf("queue holds %d copies, want 1", len(es.preds))
		}
		m.post(e)
		if len(order) != 2 || order[1] != 2 {
			t.Fatalf("after second post, fired %v, want [1 2]", order)
		}
		if es.count != 0 || held(es) != 0 {
			t.Errorf("post-drain state count=%d held=%d, want 0/0", es.count, held(es))
		}

		// Reuse cycle: a fresh registration on the released event state
		// fires once on the next post — no stale slot from the previous
		// cycle fires with it.
		whenPosted(m, e, func() { order = append(order, 3) })
		m.post(e)
		if len(order) != 3 || order[2] != 3 {
			t.Errorf("reuse cycle fired %v, want [1 2 3]", order)
		}
		if held(es) != 0 {
			t.Error("reuse cycle leaked a copy through the queue's backing array")
		}
	})
}

func TestEventCallbackRegisteredAgainstBankedPost(t *testing.T) {
	withImage(t, func(img *Image) {
		m := img.m
		e := img.NewEvent()
		m.post(e)
		fired := 0
		// A post is already banked: registration consumes it inline and
		// never enters the queue.
		whenPosted(m, e, func() { fired++ })
		if fired != 1 {
			t.Errorf("registration against banked post fired %d, want 1", fired)
		}
		if es := m.eventState(e); es.count != 0 || len(es.preds) != 0 {
			t.Errorf("state after inline consume: count=%d queued=%d, want 0/0", es.count, len(es.preds))
		}
	})
}

// TestEventCallbackReentrantPost pins the drain loop against a waiting copy
// that itself posts the event: the nested count must be visible to the
// loop (queued copies keep draining) without double-counting.
func TestEventCallbackReentrantPost(t *testing.T) {
	withImage(t, func(img *Image) {
		m := img.m
		e := img.NewEvent()
		es := m.eventState(e)
		var order []int
		whenPosted(m, e, func() { order = append(order, 1); m.post(e) })
		whenPosted(m, e, func() { order = append(order, 2) })
		m.post(e)
		if len(order) != 2 || order[0] != 1 || order[1] != 2 {
			t.Errorf("reentrant drain fired %v, want [1 2]", order)
		}
		if es.count != 0 || held(es) != 0 {
			t.Errorf("state after reentrant drain: count=%d held=%d, want 0/0", es.count, held(es))
		}
	})
}
