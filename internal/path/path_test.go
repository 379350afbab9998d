package path

import (
	"testing"

	"caf2go/internal/sim"
	"caf2go/internal/trace"
)

// TestNilTrackerInert: every method on a nil tracker is a no-op — the
// precondition for guard-free instrumentation sites.
func TestNilTrackerInert(t *testing.T) {
	var tk *Tracker
	tk.Begin(0, 1, 0, 5)
	tk.Claim(ReqCtx(0), Wire, 10)
	tk.ClaimTag(WireTag(ReqCtx(0)), Wire, 10)
	tk.Finish(0, 20)
	tk.Abort(0)
	if tk.Finished() != 0 || tk.Export() != nil {
		t.Fatal("nil tracker not inert")
	}
}

// TestExactDecomposition: claims partition [scheduled, done) and the
// buckets sum exactly to the measured latency, with overlapping
// fork-join claims collapsing to no-ops.
func TestExactDecomposition(t *testing.T) {
	tk, _ := newTracker()
	tk.Begin(3, 1, 100, 130) // 30ns client queue
	c := ReqCtx(3)
	tk.Claim(c, LockWait, 200) // 70ns lock wait
	tk.Claim(c, Wire, 260)     // 60ns wire
	tk.Claim(c, Wire, 250)     // stale: at <= cursor, no-op
	tk.Claim(c, HandlerService, 300)
	tk.Finish(3, 340)      // 40ns residual
	tk.Claim(c, Wire, 400) // after Finish: dropped
	tk.Finish(3, 400)      // double Finish: dropped

	e := tk.Export()
	if len(e.Reqs) != 1 {
		t.Fatalf("exported %d requests, want 1", len(e.Reqs))
	}
	r := e.Reqs[0]
	if r.Seq != 3 || r.Client != 1 || r.Scheduled != 100 || r.Done != 340 {
		t.Fatalf("request identity: %+v", r)
	}
	want := [NumBuckets]int64{}
	want[ClientQueue] = 30
	want[LockWait] = 70
	want[Wire] = 60
	want[HandlerService] = 40 + 40
	if r.Buckets != want {
		t.Fatalf("buckets %v, want %v", r.Buckets, want)
	}
	var sum int64
	for _, b := range r.Buckets {
		sum += b
	}
	if sum != r.Latency() || sum != 240 {
		t.Fatalf("bucket sum %d != latency %d", sum, r.Latency())
	}
	if tk.Finished() != 1 {
		t.Fatalf("finished %d, want 1", tk.Finished())
	}
}

// TestReissueAndStall: a second Begin is a failover re-issue, claiming
// ReplayReissue; EpochStall rides the ordinary Claim path.
func TestReissueAndStall(t *testing.T) {
	tk, _ := newTracker()
	tk.Begin(0, 2, 0, 10)
	c := ReqCtx(0)
	tk.Claim(c, Wire, 50)
	tk.Claim(c, EpochStall, 120) // withdrawn across the epoch commit
	tk.Begin(0, 2, 0, 150)       // re-issued 30ns after the commit
	tk.Claim(c, Wire, 180)
	tk.Finish(0, 180)

	r := tk.Export().Reqs[0]
	if r.Replays != 1 {
		t.Fatalf("replays %d, want 1", r.Replays)
	}
	if r.Buckets[EpochStall] != 70 || r.Buckets[ReplayReissue] != 30 {
		t.Fatalf("stall/reissue buckets: %v", r.Buckets)
	}
	var sum int64
	for _, b := range r.Buckets {
		sum += b
	}
	if sum != r.Latency() {
		t.Fatalf("bucket sum %d != latency %d", sum, r.Latency())
	}
}

// TestAbortExcluded: aborted requests export with Done == -1 and are
// excluded from the exactness invariant and the finished count.
func TestAbortExcluded(t *testing.T) {
	tk, _ := newTracker()
	tk.Begin(7, 0, 0, 5)
	tk.Claim(ReqCtx(7), Wire, 40)
	tk.Abort(7)
	tk.Claim(ReqCtx(7), Wire, 90) // post-abort claims dropped
	r := tk.Export().Reqs[0]
	if !r.Aborted || r.Done != -1 || r.Latency() != -1 {
		t.Fatalf("abort state: %+v", r)
	}
	if r.Buckets[Wire] != 35 {
		t.Fatalf("pre-abort claim lost: %v", r.Buckets)
	}
	if tk.Finished() != 0 {
		t.Fatal("aborted request counted as finished")
	}
}

// TestSpanDAG: spans are the op records under a request, parented to
// their context's op and stamped first-stamp-wins; export numbers them in
// creation order and groups them under their request.
func TestSpanDAG(t *testing.T) {
	// A log shared with a lifecycle of two ops: record ids and span ids
	// part ways.
	ops := trace.NewOpLog(trace.NewLifecycle(nil, 2), true)
	tk := New(ops)
	tk.Begin(1, 0, 0, 0)
	root := ReqCtx(1)
	r1 := ops.New("spawn", 0, 3, 10, root.Req, root.Span)
	ops.New("copy", 0, 3, 15, 0, 0) // the lifecycle's, under no request: not a span
	child := Ctx{Req: root.Req, Span: int32(r1)}
	r2 := ops.New("lock", 3, 3, 20, child.Req, child.Span)
	if ops.New("get", 3, 0, 25, 0, 0) != 0 {
		t.Fatal("an op nobody keeps got a record")
	}
	ops.Stage(r1, 0, trace.StageInit, 12) // init is the span's creation
	ops.Stage(r1, 0, trace.StageGlobal, 40)
	ops.Stage(r1, 0, trace.StageGlobal, 50)    // first stamp wins
	ops.Stage(r1, 0, trace.StageLocalData, 45) // and nothing after global
	ops.Stage(0, 0, trace.StageLocalData, 40)  // record 0 ignored
	ops.Stage(99, 0, trace.StageLocalData, 40) // unknown record ignored
	tk.Finish(1, 60)

	if r1 != 1 || r2 != 3 {
		t.Fatalf("record ids %d, %d", r1, r2)
	}
	r := tk.Export().Reqs[0]
	if len(r.Spans) != 2 {
		t.Fatalf("%d spans, want 2", len(r.Spans))
	}
	if r.Spans[0].ID != 1 || r.Spans[0].Kind != "spawn" || r.Spans[0].Parent != 0 || r.Spans[0].T[0] != 10 {
		t.Fatalf("span 1: %+v", r.Spans[0])
	}
	if r.Spans[1].ID != 2 || r.Spans[1].Kind != "lock" || r.Spans[1].Parent != 1 {
		t.Fatalf("span 2: %+v", r.Spans[1])
	}
	if r.Spans[0].T != [trace.NumStages]int64{10, -1, -1, 40} {
		t.Fatalf("span stamps: %+v", r.Spans[0])
	}
}

// newTracker returns a tracker and the op log its spans are kept in.
func newTracker() (*Tracker, *trace.OpLog) {
	ops := trace.NewOpLog(nil, true)
	return New(ops), ops
}

// TestCtxTagHelpers pins the context/tag encodings.
func TestCtxTagHelpers(t *testing.T) {
	var zero Ctx
	if zero.Active() || zero.Seq() != -1 {
		t.Fatal("zero Ctx not inactive")
	}
	c := ReqCtx(0)
	if !c.Active() || c.Seq() != 0 {
		t.Fatalf("ReqCtx(0) = %+v", c)
	}
	if (Tag{}).Active() {
		t.Fatal("zero Tag active")
	}
	if wt := WireTag(c); !wt.Active() || wt.Bucket != Wire {
		t.Fatalf("WireTag = %+v", wt)
	}
	if mt := MirrorTag(c); mt.Bucket != ReplMirror {
		t.Fatalf("MirrorTag = %+v", mt)
	}
	if Wire.String() != "wire" || Bucket(200).String() != "unknown" {
		t.Fatal("bucket names")
	}
	if n := BucketNames(); len(n) != int(NumBuckets) || n[LockWait] != "lock_wait" {
		t.Fatalf("BucketNames() = %v", n)
	}
	_ = sim.Time(0)
}
