package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"caf2go/internal/sim"
)

// TestLogAcrossChunks: a log holds what was appended, in order, at stable
// addresses, whatever the count's relation to the chunk size.
func TestLogAcrossChunks(t *testing.T) {
	for _, n := range []int{0, 1, logChunk - 1, logChunk, logChunk + 1, 3*logChunk + 1} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			var l Log[int]
			ptrs := make([]*int, n)
			for i := 0; i < n; i++ {
				ptrs[i] = l.Append(i)
			}
			if l.Len() != n || l.Full() {
				t.Fatalf("Len %d Full %v, want %d false", l.Len(), l.Full(), n)
			}
			// Pointers taken before later appends still alias the record.
			for i, p := range ptrs {
				if p != l.At(i) || *p != i {
					t.Fatalf("record %d: Append returned %p (%d), At returns %p", i, p, *p, l.At(i))
				}
				*p = -i
			}
			got := l.Slice()
			if n == 0 {
				if got != nil {
					t.Fatalf("empty log flattened to %v", got)
				}
				return
			}
			for i, v := range got {
				if v != -i {
					t.Fatalf("Slice[%d] = %d, want %d", i, v, -i)
				}
			}
			if len(got) != n || len(l.chunks) != (n+logChunk-1)/logChunk {
				t.Fatalf("%d records in %d chunks", len(got), len(l.chunks))
			}
		})
	}
}

// TestLogLimit: a bounded log keeps exactly its first limit records and
// allocates no more than that, however the limit relates to the chunk.
func TestLogLimit(t *testing.T) {
	for _, limit := range []int{1, 3, logChunk, logChunk + 1} {
		l := NewLog[int](limit)
		for i := 0; i < limit+5; i++ {
			if p := l.Append(i); (p == nil) != (i >= limit) {
				t.Fatalf("limit %d: Append #%d returned %v", limit, i, p)
			}
		}
		if l.Len() != limit || !l.Full() {
			t.Fatalf("limit %d: Len %d Full %v", limit, l.Len(), l.Full())
		}
		total := 0
		for _, ch := range l.chunks {
			total += cap(ch)
		}
		if total != limit {
			t.Errorf("limit %d: chunks hold room for %d records", limit, total)
		}
	}
	if l := NewLog[int](-1); l.Full() || l.Append(1) == nil {
		t.Error("a non-positive limit must mean unbounded")
	}
}

// TestLogAtOutOfRange: At is a checked index.
func TestLogAtOutOfRange(t *testing.T) {
	var l Log[int]
	l.Append(1)
	for _, i := range []int{-1, 1, logChunk} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) on a 1-record log did not panic", i)
				}
			}()
			l.At(i)
		}()
	}
}

// TestOpIDsOutOfRange: id 0, negative ids, ids past the log and the 0 a
// full tracker hands out are all ignored by OpStage and unknown to Op.
func TestOpIDsOutOfRange(t *testing.T) {
	rec := NewRecorder(100)
	l, ops := newLifecycle(rec, 2)
	a, b := ops.New("copy", 0, 1, 0, 0, 0), ops.New("put", 1, 0, 0, 0, 0)
	stale := ops.New("get", 0, 1, 0, 0, 0)
	if a != 1 || b != 2 || stale != 0 {
		t.Fatalf("ids %d %d %d, want 1 2 0", a, b, stale)
	}
	for _, id := range []int64{0, -1, -1 << 40, 3, 1 << 40, stale} {
		ops.Stage(id, 0, StageInit, 5)
		ops.Stage(id, 0, StageGlobal, 9)
	}
	if len(l.Ops()) != 2 {
		t.Errorf("%d op records, want 2", len(l.Ops()))
	}
	ops.Stage(a, 0, NumStages, 5) // stage out of range
	if l.trans.Len() != 0 || rec.Len() != 0 {
		t.Fatalf("ignored stamps logged %d transitions, %d events", l.trans.Len(), rec.Len())
	}
	for _, op := range l.Ops() {
		if op.T != [NumStages]sim.Time{-1, -1, -1, -1} {
			t.Errorf("op %d stamped: %v", op.ID, op.T)
		}
	}
	if got := Dropped(nil, l); !reflect.DeepEqual(got, map[string]int{"lifecycle-ops": 1}) {
		t.Errorf("Dropped = %v", got)
	}
}

// TestCapacitySemantics: every log keeps its first capacity records (the
// transition log 4 ×) and counts the rest, and the chunk size shows in
// none of it.
func TestCapacitySemantics(t *testing.T) {
	for _, capacity := range []int{1, 3, logChunk, logChunk + 1} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rec := NewRecorder(capacity)
			l, ops := newLifecycle(rec, capacity)
			const extra = 7
			// capacity+extra ops, four stamps each (only the kept ops log
			// transitions, so that log holds exactly 4 × capacity), then
			// as many spans and parks.
			for i := 0; i < capacity+extra; i++ {
				id := ops.New("copy", 0, 1, sim.Time(i), 0, 0)
				for s := StageInit; s < NumStages; s++ {
					ops.Stage(id, 0, s, sim.Time(i))
				}
			}
			for i := 0; i < capacity+extra; i++ {
				rec.Span(0, 0, "work", "app", sim.Time(i), 1)
				l.EndBlock(l.BeginBlock(0, 0, "finish", sim.Time(i)), sim.Time(i+1))
				l.AddFinish(FinishRound{Img: i})
			}
			if rec.Len() != capacity || len(l.Ops()) != capacity || l.trans.Len() != 4*capacity ||
				len(l.Blocks()) != capacity || len(l.FinishRounds()) != capacity {
				t.Fatalf("kept %d events, %d ops, %d transitions, %d blocks, %d finishes; capacity %d",
					rec.Len(), len(l.Ops()), l.trans.Len(), len(l.Blocks()), len(l.FinishRounds()), capacity)
			}
			// The recorder filled on the flows of the first capacity/4 ops:
			// the rest of the 4 × capacity flow points and every span dropped.
			wantRec := map[string]int{"oplife": 3 * capacity, "app": capacity + extra}
			if got := Dropped(rec, nil); !reflect.DeepEqual(got, wantRec) {
				t.Errorf("recorder dropped %v, want %v", got, wantRec)
			}
			wantLife := map[string]int{"lifecycle-ops": extra, "lifecycle-blocks": extra}
			if got := Dropped(nil, l); !reflect.DeepEqual(got, wantLife) {
				t.Errorf("lifecycle dropped %v, want %v", got, wantLife)
			}
			for i, op := range l.Ops() {
				if op.ID != int64(i)+1 || op.Created != sim.Time(i) {
					t.Fatalf("op %d is %+v: not the first %d in order", i, op, capacity)
				}
			}
		})
	}
}

// TestTransitionLogDropsAtCapacity: the 4 × capacity bound on the
// transition log is counted under lifecycle-transitions. The stamping
// API cannot exceed it (a kept op stamps each stage once), so the test
// shrinks the log under it.
func TestTransitionLogDropsAtCapacity(t *testing.T) {
	l, ops := newLifecycle(nil, 2)
	l.trans = NewLog[transition](3)
	id := ops.New("copy", 0, 1, 0, 0, 0)
	tok := l.BeginBlock(0, 0, "finish", 0)
	for s := StageInit; s < NumStages; s++ {
		ops.Stage(id, 0, s, sim.Time(s))
	}
	if op := l.Ops()[id-1]; op.T != [NumStages]sim.Time{0, 1, 2, 3} {
		t.Errorf("a dropped transition must still stamp the record: %v", op.T)
	}
	if got := Dropped(nil, l); !reflect.DeepEqual(got, map[string]int{"lifecycle-transitions": 1}) {
		t.Errorf("Dropped = %v", got)
	}
	// A park opened on a full transition log sees no releasers.
	l.EndBlock(tok, 5)
	l.EndBlock(l.BeginBlock(0, 0, "finish", 5), 9)
	if b := l.Blocks(); b[0].ReleaserCount != 1 || b[1].ReleaserCount != 0 {
		t.Errorf("blocks %+v", b)
	}
}

// setFold is the releaser fold EndBlock used before it marked ops with a
// block serial: a set of the ops stamped past initiation since the park
// began, the first maxReleasers of them sorted by id.
func setFold(trans []transition) (releasers []int64, count int) {
	seen := make(map[int32]bool)
	for _, tr := range trans {
		if tr.stage == StageInit || seen[tr.op] {
			continue
		}
		seen[tr.op] = true
		if len(releasers) < maxReleasers {
			releasers = append(releasers, int64(tr.op))
		}
	}
	sort.Slice(releasers, func(i, j int) bool { return releasers[i] < releasers[j] })
	return releasers, len(seen)
}

// TestEndBlockMatchesSetFold: on a seeded trace of interleaved ops,
// stamps and overlapping parks, every block record carries the releasers
// the set-based fold computes over the same stretch of the transition log.
func TestEndBlockMatchesSetFold(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	l, ops := newLifecycle(nil, 4096)
	type park struct {
		tok BlockToken
		img int
	}
	var open []park
	var want []BlockRecord
	var ids []int64
	now := sim.Time(0)
	for step := 0; step < 20000; step++ {
		now += sim.Time(rng.Intn(3))
		switch r := rng.Intn(10); {
		case r < 2:
			ids = append(ids, ops.New("copy", rng.Intn(8), rng.Intn(8), now, 0, 0))
		case r < 8 && len(ids) > 0:
			// Mostly recent ops, so parks see repeats, a few or dozens.
			id := ids[len(ids)-1-rng.Intn(min(len(ids), 24))]
			ops.Stage(id, rng.Intn(8), Stage(rng.Intn(int(NumStages))), now)
		case r == 8:
			open = append(open, park{l.BeginBlock(len(open), 0, "finish", now), len(open)})
		case len(open) > 0:
			i := rng.Intn(len(open))
			p := open[i]
			open = append(open[:i], open[i+1:]...)
			if now > p.tok.start {
				rel, n := setFold(l.trans.Slice()[p.tok.transIdx:])
				want = append(want, BlockRecord{Img: p.img, Prim: "finish", Start: p.tok.start,
					Dur: now - p.tok.start, Releasers: rel, ReleaserCount: n})
			}
			l.EndBlock(p.tok, now)
		}
	}
	got := l.Blocks()
	if len(got) < 500 || !reflect.DeepEqual(got, want) {
		t.Fatalf("%d block records differ from the set-based fold's %d", len(got), len(want))
	}
	var none, few, many int
	for _, b := range got {
		switch {
		case b.ReleaserCount == 0:
			none++
		case b.ReleaserCount <= maxReleasers:
			few++
		default:
			many++
		}
	}
	if none == 0 || few == 0 || many == 0 {
		t.Errorf("trace does not cover the fold: %d parks with no releaser, %d with ≤ %d, %d with more",
			none, few, maxReleasers, many)
	}
}

// perCall runs f runs times and returns the objects and bytes it
// allocated per call. testing.AllocsPerRun rounds down to a whole object,
// and what a log must not do — copy itself as it grows — shows in bytes.
func perCall(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(runs), float64(b.TotalAlloc-a.TotalAlloc) / float64(runs)
}

// TestPoolTraceAllocs pins what the hot paths of the recorder and the
// lifecycle tracker allocate: a record costs its own bytes (rounded up to
// a chunk, plus the chunk's header) and its share of one object per
// chunk, and a dropped event costs nothing. A stamp keeps one record, its
// transition: the flow point it stands for is built at export.
func TestPoolTraceAllocs(t *testing.T) {
	if sim.GoRace {
		t.Skip("the race detector's instrumentation allocates")
	}
	if n := unsafe.Sizeof(opRec{}); n > 64 {
		t.Errorf("an op record is %d bytes, want ≤ 64", n)
	}
	if n := unsafe.Sizeof(transition{}); n > 12 {
		t.Errorf("a transition is %d bytes, want ≤ 12", n)
	}
	// A log of pointer-free records allocates chunks the GC never scans.
	for _, v := range []any{opRec{}, transition{}} {
		if !pointerFree(reflect.TypeOf(v)) {
			t.Errorf("%T holds a pointer", v)
		}
	}
	const (
		runs  = 10000
		slack = 1.25 // bytes: the last chunk's unused tail, chunk headers, size classes
	)
	var (
		evB  = float64(unsafe.Sizeof(Event{}))
		recB = float64(unsafe.Sizeof(opRec{}))
		opB  = recB + 4 // and its seenBy mark
		trB  = float64(unsafe.Sizeof(transition{}))
		blkB = float64(unsafe.Sizeof(BlockRecord{}))
	)
	check := func(what string, f func(), records int, keptBytes, wholeObjects float64) {
		t.Helper()
		f() // warm: the first chunk of every log touched
		objects, bytes := perCall(runs, f)
		t.Logf("%s: %.4f objects, %.0f bytes per call (keeps %.0f)", what, objects, bytes, keptBytes)
		if maxObj := wholeObjects + 2*float64(records)/logChunk; objects > maxObj { // a chunk, and its header's growth
			t.Errorf("%s: %.4f objects per call, want ≤ %.4f", what, objects, maxObj)
		}
		if bytes > slack*keptBytes {
			t.Errorf("%s: %.0f bytes per call, want ≤ %.0f (what it keeps: %.0f)", what, bytes, slack*keptBytes, keptBytes)
		}
	}
	rec := NewRecorder(1 << 20)
	l, ops := newLifecycle(rec, 1<<20)
	check("OpNew + 4 OpStage", func() {
		id := ops.New("copy", 0, 1, 10, 0, 0)
		for s := StageInit; s < NumStages; s++ {
			ops.Stage(id, 0, s, 11)
		}
	}, 6, opB+4*trB, 0)
	check("Span below capacity", func() { rec.Span(0, 0, "work", "app", 5, 1) }, 1, evB, 0)
	// A park allocates its records and its releaser list: no set, no
	// sort closure, no second list while the first grows.
	check("BeginBlock + EndBlock", func() {
		tok := l.BeginBlock(0, 0, "finish", 10)
		ops.Stage(ops.New("copy", 0, 1, 10, 0, 0), 0, StageGlobal, 11)
		l.EndBlock(tok, 12)
	}, 4, opB+trB+blkB+8, 1)
	// An op under a request, with no lifecycle, keeps its record only.
	reqs := NewOpLog(nil, true)
	check("OpNew under a request + 4 OpStage", func() {
		id := reqs.New("spawn", 0, 1, 5, 7, 0)
		for s := StageInit; s < NumStages; s++ {
			reqs.Stage(id, 0, s, 9)
		}
	}, 1, recB, 0)

	full := NewRecorder(4)
	lf, fops := newLifecycle(full, 4)
	for i := 0; i < 8; i++ {
		full.Span(0, 0, "work", "app", 5, 1)
		fops.New("copy", 0, 1, 10, 0, 0)
	}
	dropped := func() {
		full.Span(0, 0, "work", "app", 5, 1)
		fops.Stage(fops.New("copy", 0, 1, 10, 0, 0), 0, StageInit, 10)
		lf.EndBlock(lf.BeginBlock(0, 0, "finish", 10), 12)
	}
	dropped() // the first drop of a category appends its counter
	if n := testing.AllocsPerRun(runs, dropped); n != 0 {
		t.Errorf("events, ops and parks above capacity: %v objects per call, want 0", n)
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

// newLifecycle returns a lifecycle tracker of capacity and its op log.
func newLifecycle(rec *Recorder, capacity int) (*Lifecycle, *OpLog) {
	l := NewLifecycle(rec, capacity)
	return l, NewOpLog(l, false)
}
