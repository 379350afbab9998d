package path

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"caf2go/internal/sim"
	"caf2go/internal/trace"
)

// refTracker is the tracker as it was before requests moved into a log
// indexed by seq: a map of boxed request states keyed by seq + 1, spans
// in a slice with their request beside them, an export that sorts the
// keys and groups the spans through a second map. The dense tracker must
// export what this one does from any sequence of calls.
type refTracker struct {
	reqs    map[int32]*refState
	spans   []Span
	spanReq []int32
}

// refState is a request's state as the tracker kept it before its
// records dropped their pointers: the exported Req itself, updated in
// place, and the claim cursor.
type refState struct {
	req    Req
	cursor sim.Time
	done   bool
}

func (st *refState) claim(b Bucket, at sim.Time) {
	if st == nil || st.done || at <= st.cursor {
		return
	}
	st.req.Buckets[b] += int64(at - st.cursor)
	st.cursor = at
}

func (t *refTracker) begin(seq, client int, scheduled, now sim.Time) {
	key := int32(seq) + 1
	if st := t.reqs[key]; st != nil {
		if !st.done {
			st.claim(ReplayReissue, now)
			st.req.Replays++
		}
		return
	}
	st := &refState{req: Req{Seq: int32(seq), Client: int32(client), Scheduled: int64(scheduled), Done: -1},
		cursor: scheduled}
	t.reqs[key] = st
	st.claim(ClientQueue, now)
}

func (t *refTracker) finish(seq int, now sim.Time) {
	if st := t.reqs[int32(seq)+1]; st != nil && !st.done {
		st.claim(HandlerService, now)
		st.req.Done = int64(now)
		st.done = true
	}
}

func (t *refTracker) abort(seq int) {
	if st := t.reqs[int32(seq)+1]; st != nil && !st.done {
		st.req.Aborted = true
		st.done = true
	}
}

func (t *refTracker) spanNew(c Ctx, kind string, img, peer int, now sim.Time) int32 {
	sp := Span{ID: int32(len(t.spans)) + 1, Req: c.Req - 1, Parent: c.Span, Kind: kind,
		Img: int32(img), Peer: int32(peer), T: [trace.NumStages]int64{int64(now), -1, -1, -1}}
	t.spans = append(t.spans, sp)
	t.spanReq = append(t.spanReq, c.Req)
	return sp.ID
}

func (t *refTracker) export() *Export {
	e := &Export{Buckets: BucketNames()}
	keys := make([]int32, 0, len(t.reqs))
	for k := range t.reqs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	byReq := make(map[int32][]Span)
	for i, sp := range t.spans {
		byReq[t.spanReq[i]] = append(byReq[t.spanReq[i]], sp)
	}
	for _, k := range keys {
		r := t.reqs[k].req
		r.Spans = byReq[k]
		e.Reqs = append(e.Reqs, r)
	}
	return e
}

// TestDenseTrackerMatchesMapFold drives both trackers with one seeded
// stream: requests begun out of seq order and with holes that are never
// filled, re-issues of open and of finished requests, claims, spans and
// stamps on requests nobody began, aborts. The spans are op records; the
// reference keeps them itself, under the op log's stamping rules.
func TestDenseTrackerMatchesMapFold(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	tk, ops := newTracker()
	ref := &refTracker{reqs: make(map[int32]*refState)}
	const seqs = 3000 // spans two chunks of the request log
	order := rng.Perm(seqs)
	begun := order[:0:0]
	now := sim.Time(0)
	for step := 0; step < 40000; step++ {
		now += sim.Time(rng.Intn(5))
		seq := rng.Intn(seqs + 50) // mostly in range, some never begun
		if len(begun) > 0 && rng.Intn(4) > 0 {
			seq = begun[rng.Intn(len(begun))]
		}
		c := Ctx{Req: int32(seq) + 1, Span: int32(rng.Intn(4))}
		switch r := rng.Intn(16); {
		case r < 3 && len(begun) < len(order)*9/10: // holes: a tenth is never begun
			seq = order[len(begun)]
			begun = append(begun, seq)
			sched := now - sim.Time(rng.Intn(20))
			tk.Begin(seq, seq%7, sched, now)
			ref.begin(seq, seq%7, sched, now)
		case r < 4: // replay, of an open or of a finished request
			tk.Begin(seq, 99, 0, now)
			ref.begin(seq, 99, 0, now)
		case r < 8:
			b := Bucket(rng.Intn(int(NumBuckets)))
			tk.Claim(c, b, now)
			tk.ClaimTag(Tag{Req: c.Req, Bucket: b}, b, now-1)
			ref.reqs[c.Req].claim(b, now)
		case r < 11:
			got, want := ops.New("spawn", seq%5, seq%3, now, c.Req, c.Span), ref.spanNew(c, "spawn", seq%5, seq%3, now)
			if got != int64(want) {
				t.Fatalf("step %d: span id %d, reference %d", step, got, want)
			}
		case r < 14 && len(ref.spans) > 0:
			span, stage := int32(rng.Intn(len(ref.spans)+3)), rng.Intn(int(trace.NumStages)+1)-1
			ops.Stage(int64(span), 0, trace.Stage(stage), now)
			if span >= 1 && int(span) <= len(ref.spans) && stage >= 0 && stage < int(trace.NumStages) {
				// First stamp wins, and nothing stamps local data after
				// global completion.
				sp := &ref.spans[span-1]
				if sp.T[stage] < 0 && !(stage == int(trace.StageLocalData) && sp.T[trace.StageGlobal] >= 0) {
					sp.T[stage] = int64(now)
				}
			}
		case r < 15:
			tk.Finish(seq, now)
			ref.finish(seq, now)
		default:
			tk.Abort(seq)
			ref.abort(seq)
		}
	}
	got, want := tk.Export(), ref.export()
	if !reflect.DeepEqual(got, want) {
		for i := range want.Reqs {
			if i >= len(got.Reqs) || !reflect.DeepEqual(got.Reqs[i], want.Reqs[i]) {
				t.Fatalf("request %d of %d/%d differs:\n got  %+v\n want %+v", i, len(got.Reqs), len(want.Reqs), got.Reqs[i], want.Reqs[i])
			}
		}
		t.Fatalf("exports differ: %d requests, reference %d", len(got.Reqs), len(want.Reqs))
	}
	var finished, aborted, replayed, spanned int
	for _, r := range got.Reqs {
		finished += b2i(r.Done >= 0)
		aborted += b2i(r.Aborted)
		replayed += b2i(r.Replays > 0)
		spanned += b2i(len(r.Spans) > 1)
	}
	if len(got.Reqs) < seqs*9/10 || len(got.Reqs) >= seqs || finished != tk.Finished() || finished == 0 || aborted == 0 || replayed == 0 || spanned == 0 {
		t.Errorf("stream does not cover the tracker: %d requests (holes wanted), %d finished (%d counted), %d aborted, %d replayed, %d with spans",
			len(got.Reqs), finished, tk.Finished(), aborted, replayed, spanned)
	}
}

// pointerFree reports whether a value of type t holds no pointer.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return t.Kind() >= reflect.Bool && t.Kind() <= reflect.Complex128
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestBeginOutOfOrder: the cases of the stream above, by hand.
func TestBeginOutOfOrder(t *testing.T) {
	tk, ops := newTracker()
	tk.Begin(5, 1, 100, 110)
	tk.Begin(2, 0, 50, 60)
	tk.Begin(-1, 0, 0, 5) // no such request
	// Seqs 0, 1, 3, 4 are holes: nothing claims, finishes or exports them.
	for _, hole := range []int{0, 1, 3, 4, 6} {
		tk.Claim(ReqCtx(hole), Wire, 500)
		tk.Finish(hole, 600)
		tk.Abort(hole)
	}
	ops.New("spawn", 0, 1, 70, ReqCtx(3).Req, 0) // a span under a hole exports nowhere
	ops.New("spawn", 0, 1, 70, ReqCtx(9).Req, 0) // and one past the log
	s := int32(ops.New("spawn", 0, 1, 70, ReqCtx(2).Req, 0))
	tk.Begin(5, 7, 0, 150) // re-issue of an open request: replay gap, client kept
	tk.Finish(5, 200)
	tk.Begin(5, 7, 0, 250) // re-issue of a finished one: nothing
	tk.Begin(3, 4, 300, 310)

	e := tk.Export()
	if len(e.Reqs) != 3 || e.Reqs[0].Seq != 2 || e.Reqs[1].Seq != 3 || e.Reqs[2].Seq != 5 {
		t.Fatalf("export order: %+v", e.Reqs)
	}
	if r := e.Reqs[0]; len(r.Spans) != 1 || r.Spans[0].ID != s || r.Done != -1 {
		t.Errorf("request 2: %+v", r)
	}
	if r := e.Reqs[1]; len(r.Spans) != 1 || r.Spans[0].ID != 1 || r.Buckets[ClientQueue] != 10 {
		// The span recorded under seq 3 while it was a hole names seq 3,
		// so it joins the request once that is begun: spans group by
		// Span.Req, as they did by spanReq.
		t.Errorf("request 3: %+v", r)
	}
	if r := e.Reqs[2]; r.Client != 1 || r.Replays != 1 || r.Done != 200 ||
		r.Buckets[ClientQueue] != 10 || r.Buckets[ReplayReissue] != 40 || r.Buckets[HandlerService] != 50 {
		t.Errorf("request 5: %+v", r)
	}
	if tk.Finished() != 1 {
		t.Errorf("finished %d, want 1", tk.Finished())
	}
}

// TestPoolTracePathAllocs: a request costs its record's bytes and its
// share of one object per chunk — no box per request, no copy of the log
// as it grows. (A span is an op record: internal/trace pins its cost.)
func TestPoolTracePathAllocs(t *testing.T) {
	if sim.GoRace {
		t.Skip("the race detector's instrumentation allocates")
	}
	const (
		runs  = 10000
		chunk = 1024
		slack = 1.25 // bytes: the last chunk's unused tail, chunk headers (objects: 2 per chunk)
	)
	perCall := func(f func()) (objects, bytes float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		f() // warm: the first chunk
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&b)
		return float64(b.Mallocs-a.Mallocs) / runs, float64(b.TotalAlloc-a.TotalAlloc) / runs
	}
	if n := unsafe.Sizeof(reqState{}); n > 112 {
		t.Errorf("a request's state is %d bytes, want ≤ 112", n)
	}
	if !pointerFree(reflect.TypeOf(reqState{})) {
		t.Error("reqState holds a pointer: the GC scans the request log")
	}
	tk, _ := newTracker()
	seq := 0
	objects, bytes := perCall(func() {
		tk.Begin(seq, 1, 0, 5)
		tk.Claim(ReqCtx(seq), Wire, 9)
		tk.Finish(seq, 12)
		seq++
	})
	if kept := float64(unsafe.Sizeof(reqState{})); objects > 2.0/chunk || bytes > slack*kept {
		t.Errorf("Begin + Claim + Finish: %.4f objects, %.0f bytes per request; the record is %.0f bytes", objects, bytes, kept)
	}
}
