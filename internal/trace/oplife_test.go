package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"caf2go/internal/sim"
)

func TestNilLifecycleIsInert(t *testing.T) {
	var l *Lifecycle
	var ops *OpLog
	if NewOpLog(nil, false) != nil {
		t.Fatal("an op log with no tracker")
	}
	if id := ops.New("copy", 0, 1, 10, 1, 0); id != 0 || ops.Len() != 0 {
		t.Fatalf("New on nil = %d", id)
	}
	ops.Stage(1, 0, StageGlobal, 20)
	ops.ReqOps(func(OpRecord, int32, int32) { t.Fatal("a nil op log has records") })
	// An op log without a lifecycle keeps only ops under a request.
	reqs := NewOpLog(nil, true)
	if id := reqs.New("copy", 0, 1, 10, 0, 0); id != 0 {
		t.Fatalf("an op under no request got record %d", id)
	}
	tok := l.BeginBlock(0, 0, "finish", 5)
	l.EndBlock(tok, 50)
	l.AddFinish(FinishRound{})
	if l.Ops() != nil || l.Blocks() != nil || l.FinishRounds() != nil || Dropped(nil, l) != nil {
		t.Fatal("nil lifecycle returned data")
	}
}

func TestOpLifecycleStages(t *testing.T) {
	rec := NewRecorder(100)
	l, ops := newLifecycle(rec, 100)
	id := ops.New("copy", 0, 3, 10, 0, 0)
	if id != 1 {
		t.Fatalf("first op id = %d", id)
	}
	ops.Stage(id, 0, StageInit, 10)
	ops.Stage(id, 0, StageLocalData, 15)
	ops.Stage(id, 0, StageLocalData, 99) // idempotent: first wins
	ops.Stage(id, 0, StageLocalOp, 20)
	ops.Stage(id, 3, StageGlobal, 40)
	op := l.Ops()[0]
	want := [NumStages]int64{10, 15, 20, 40}
	for s := Stage(0); s < NumStages; s++ {
		if int64(op.T[s]) != want[s] {
			t.Errorf("stage %v = %d, want %d", s, op.T[s], want[s])
		}
	}
	// Unknown and untracked IDs are ignored.
	ops.Stage(0, 0, StageGlobal, 1)
	ops.Stage(999, 0, StageGlobal, 1)

	// The recorder got a flow: s, t, t, f with matching id.
	var phases []byte
	for _, e := range rec.Events() {
		if e.Cat == "oplife" {
			if e.FlowID != id {
				t.Errorf("flow id = %d, want %d", e.FlowID, id)
			}
			phases = append(phases, e.FlowPhase)
		}
	}
	if string(phases) != "sttf" {
		t.Errorf("flow phases = %q, want sttf", phases)
	}
}

func TestBlockAttribution(t *testing.T) {
	l, ops := newLifecycle(nil, 100)
	a := ops.New("copy", 0, 1, 0, 0, 0)
	b := ops.New("spawn", 0, 2, 0, 0, 0)
	ops.Stage(a, 0, StageInit, 1)
	ops.Stage(b, 0, StageInit, 2)

	tok := l.BeginBlock(0, 0, "finish", 10)
	ops.Stage(a, 0, StageLocalOp, 12)
	ops.Stage(a, 1, StageGlobal, 15) // same op twice: one releaser
	ops.Stage(b, 2, StageGlobal, 18)
	c := ops.New("put", 1, 0, 19, 0, 0)
	ops.Stage(c, 1, StageInit, 19) // initiation is not a release
	l.EndBlock(tok, 20)

	blocks := l.Blocks()
	if len(blocks) != 1 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	br := blocks[0]
	if br.Prim != "finish" || br.Start != 10 || br.Dur != 10 {
		t.Errorf("block = %+v", br)
	}
	if br.ReleaserCount != 2 || len(br.Releasers) != 2 ||
		br.Releasers[0] != a || br.Releasers[1] != b {
		t.Errorf("releasers = %v (count %d), want [%d %d]", br.Releasers, br.ReleaserCount, a, b)
	}

	// Zero-duration blocks are discarded.
	tok2 := l.BeginBlock(0, 0, "lock", 20)
	l.EndBlock(tok2, 20)
	if len(l.Blocks()) != 1 {
		t.Error("zero-duration block recorded")
	}
}

func TestLifecycleCapacityDrops(t *testing.T) {
	l, ops := newLifecycle(nil, 2)
	if ops.New("a", 0, -1, 0, 0, 0) == 0 || ops.New("b", 0, -1, 0, 0, 0) == 0 {
		t.Fatal("ops under capacity dropped")
	}
	if id := ops.New("c", 0, -1, 0, 0, 0); id != 0 {
		t.Fatalf("op over capacity got id %d", id)
	}
	d := Dropped(nil, l)
	if d["lifecycle-ops"] != 1 {
		t.Errorf("dropped = %v", d)
	}
}

// TestLifecycleCapacityFitsOpIDs: a transition keeps its op's record id
// in 32 bits, so a capacity past math.MaxInt32 is clamped to it. The
// logs allocate only as records arrive, so the tracker costs nothing to
// build; its first ops are kept, stamped and flowed as below the clamp.
func TestLifecycleCapacityFitsOpIDs(t *testing.T) {
	rec := NewRecorder(100)
	l, ops := newLifecycle(rec, math.MaxInt32+1)
	if l.capacity != math.MaxInt32 || l.trans.limit != 4*math.MaxInt32 {
		t.Fatalf("capacity %d (transitions %d), want %d", l.capacity, l.trans.limit, math.MaxInt32)
	}
	id := ops.New("copy", 0, 1, 10, 0, 0)
	ops.Stage(id, 1, StageGlobal, 20)
	if ev := rec.Events(); id != 1 || len(ev) != 1 || ev[0].FlowID != 1 || ev[0].Start != 20 || ev[0].Image != 1 {
		t.Errorf("op %d, flow points %+v", id, ev)
	}
}

func TestFlowEventsInChromeTrace(t *testing.T) {
	rec := NewRecorder(10)
	_, ops := newLifecycle(rec, 10)
	id := ops.New("copy", 0, 3, 0, 0, 0)
	ops.Stage(id, 0, StageInit, 1000)
	ops.Stage(id, 3, StageGlobal, 5000)
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(out) != 2 {
		t.Fatalf("events = %d", len(out))
	}
	s, f := out[0], out[1]
	if s["ph"] != "s" || s["id"] != "1" || s["bp"] != nil || s["name"] != "copy" || s["ts"] != 1.0 {
		t.Errorf("flow start = %v", s)
	}
	if f["ph"] != "f" || f["id"] != "1" || f["bp"] != "e" || f["pid"] != float64(3) {
		t.Errorf("flow end = %v", f)
	}
}

// storedFlows is the recorder as it was when every stamp also stored its
// flow point as an Event: one stream, first capacity entries kept, drops
// counted per category.
type storedFlows struct {
	limit   int
	events  []Event
	dropped map[string]int
}

func (r *storedFlows) add(e Event) {
	if len(r.events) < r.limit {
		r.events = append(r.events, e)
		return
	}
	if r.dropped == nil {
		r.dropped = map[string]int{}
	}
	r.dropped[e.Cat]++
}

// TestFlowPointsMatchStoredFlows drives a recorder with a lifecycle
// attached and the stored-flow reference with one seeded stream of
// spans, instants, ops and stamps (repeated and out-of-order ones
// included), at capacities that cut the stream anywhere, and compares
// what they export.
func TestFlowPointsMatchStoredFlows(t *testing.T) {
	for _, capacity := range []int{1, 7, 100, 5000} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		rec := NewRecorder(capacity)
		l, ops := newLifecycle(rec, 300)
		ref := &storedFlows{limit: capacity}
		kinds := []string{"copy", "spawn", "get"}
		var ids []int64
		now := sim.Time(0)
		for step := 0; step < 4000; step++ {
			now += sim.Time(rng.Intn(3))
			switch r := rng.Intn(8); {
			case r < 2:
				img, tid := rng.Intn(4), rng.Intn(2)
				rec.Span(img, tid, "work", "app", now, 5)
				ref.add(Event{Name: "work", Cat: "app", Image: img, Tid: tid, Start: now, Dur: 5})
			case r < 3:
				rec.Instant(1, 0, "tick", "sync", now)
				ref.add(Event{Name: "tick", Cat: "sync", Image: 1, Start: now, Inst: true})
			case r < 5:
				ids = append(ids, ops.New(kinds[rng.Intn(3)], 0, 1, now, 0, 0))
			case len(ids) > 0:
				id, img, st := ids[rng.Intn(len(ids))], rng.Intn(4), Stage(rng.Intn(int(NumStages)))
				logged := l.trans.Len()
				ops.Stage(id, img, st, now)
				if l.trans.Len() > logged { // a kept stamp: its flow point joins the stream
					ph := map[Stage]byte{StageInit: 's', StageLocalData: 't', StageLocalOp: 't', StageGlobal: 'f'}[st]
					ref.add(Event{Name: l.Ops()[id-1].Kind, Cat: "oplife", Image: img, Start: now, FlowID: id, FlowPhase: ph})
				}
			}
		}
		if truncated := ref.dropped["oplife"] > 0 && ref.dropped["app"] > 0; truncated != (capacity < 1000) {
			t.Fatalf("capacity %d: the stream does not cover the case (dropped %v)", capacity, ref.dropped)
		}
		if got := rec.Events(); !reflect.DeepEqual(got, ref.events) {
			t.Fatalf("capacity %d: %d events differ from the %d stored ones", capacity, len(got), len(ref.events))
		}
		if rec.Len() != len(ref.events) || !reflect.DeepEqual(Dropped(rec, nil), ref.dropped) {
			t.Errorf("capacity %d: Len %d dropped %v, stored %d dropped %v",
				capacity, rec.Len(), Dropped(rec, nil), len(ref.events), ref.dropped)
		}
	}
}

// BenchmarkOpLog: what the op log costs per traced op, with a lifecycle
// and request tracing on: one New under a request and its four stamps.
// The log is replaced every 1<<16 ops (off the clock), so a long run
// keeps a bounded heap and still pays for the chunks it appends.
func BenchmarkOpLog(b *testing.B) {
	const perLog = 1 << 16
	var ops *OpLog
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%perLog == 0 {
			b.StopTimer()
			ops = NewOpLog(NewLifecycle(NewRecorder(perLog), perLog), true)
			b.StartTimer()
		}
		id := ops.New("spawn", i&7, (i+1)&7, sim.Time(i), int32(i>>2)+1, int32(i%perLog))
		for s := StageInit; s < NumStages; s++ {
			ops.Stage(id, i&7, s, sim.Time(i)+sim.Time(s))
		}
	}
}
