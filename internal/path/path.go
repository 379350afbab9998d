// Package path is the request-scoped causal tracing layer: it stitches
// the per-op lifecycle stamps (internal/trace) into per-request causal
// DAGs of spans, and decomposes each request's measured latency exactly
// into attribution buckets (critical-path extraction).
//
// The design constraints mirror internal/trace and internal/metrics:
//
//   - A nil *Tracker (tracing disabled) is fully usable — every method
//     on a nil receiver is a no-op, so instrumentation sites need no
//     guards and a disabled run stays bit-identical to an
//     uninstrumented one.
//   - All mutation happens on the engine's admission strand, in
//     deterministic event order, so span IDs and bucket claims are a
//     pure function of the seed; Export sorts its output so two equal
//     runs export byte-identical JSON at any GOMAXPROCS.
//
// Exactness is by construction, not bookkeeping discipline: each
// request carries a claim cursor that starts at its scheduled arrival.
// Every instrumentation point claims the half-open interval
// [cursor, now) for one bucket and advances the cursor; Finish assigns
// the residual to HandlerService. The buckets therefore partition
// [scheduled, done) and their sum equals the Collector's
// scheduled-arrival latency to the nanosecond. Concurrent causal
// branches (fan-out spawns, asynchronous mirror writes) claim under the
// same monotone cursor — the first branch to reach an instrumentation
// point claims the elapsed interval, later branches' overlapping claims
// collapse to no-ops — which is exactly a critical-path decomposition
// of the fork-join envelope.
package path

import (
	"caf2go/internal/sim"
	"caf2go/internal/trace"
)

// Bucket is one component of a request's latency decomposition.
type Bucket uint8

const (
	// ClientQueue is open-loop client-side queueing: the gap between a
	// request's scheduled arrival and the client actually issuing it.
	ClientQueue Bucket = iota
	// CoalesceHold is time spent held in a coalescing buffer awaiting a
	// flush.
	CoalesceHold
	// Wire is network time: injection, gap, hops, and delivery of the
	// AMs on the request's causal path.
	Wire
	// CreditStall is send-side flow-control: waiting for credits or for
	// a retransmit of a lost packet.
	CreditStall
	// LockWait is the round trip acquiring a remote lock, including
	// queueing behind other holders.
	LockWait
	// HandlerService is server/worker compute on the request's behalf,
	// plus the residual between the last claim and completion.
	HandlerService
	// ReplMirror is time claimed by replication mirror writes on the
	// request's causal path.
	ReplMirror
	// EpochStall is time a request spent withdrawn or held while an
	// epoch agreement committed a failure.
	EpochStall
	// ReplayReissue is the gap between a failover's epoch commit and
	// the request being re-issued by its client.
	ReplayReissue

	// NumBuckets is the bucket count.
	NumBuckets
)

var bucketNames = [NumBuckets]string{
	"client_queue",
	"coalesce_hold",
	"wire",
	"credit_stall",
	"lock_wait",
	"handler_service",
	"repl_mirror",
	"epoch_stall",
	"replay_reissue",
}

// String returns the bucket's stable snake_case name.
func (b Bucket) String() string {
	if b < NumBuckets {
		return bucketNames[b]
	}
	return "unknown"
}

// BucketNames returns the stable bucket names, indexed by Bucket.
func BucketNames() []string { return append([]string(nil), bucketNames[:]...) }

// Ctx is a request-scoped span context, propagated on every causal
// edge: spawn payloads, completion-handle ops, and continuation
// firings. The zero Ctx is inactive, so an untraced run carries no
// state.
type Ctx struct {
	// Req is the request seq + 1; 0 means no active request.
	Req int32
	// Span is the op-log record id (trace.OpLog) of the op that ops
	// initiated under this context parent to (0 = the request root).
	Span int32
}

// Active reports whether the context belongs to a traced request.
func (c Ctx) Active() bool { return c.Req != 0 }

// Seq returns the request sequence number (-1 when inactive).
func (c Ctx) Seq() int { return int(c.Req) - 1 }

// ReqCtx returns the root context for request seq.
func ReqCtx(seq int) Ctx { return Ctx{Req: int32(seq) + 1} }

// Tag rides an AM through the fabric (including coalesced batches): it
// names the request whose causal path the message is on and the bucket
// its delivery leg should claim (Wire for ordinary AMs, ReplMirror for
// replication mirror writes). The zero Tag is untagged.
type Tag struct {
	Req    int32 // request seq + 1; 0 = untagged
	Bucket Bucket
}

// Active reports whether the tag names a traced request.
func (t Tag) Active() bool { return t.Req != 0 }

// WireTag returns c's fabric tag for an ordinary AM leg.
func WireTag(c Ctx) Tag { return Tag{Req: c.Req, Bucket: Wire} }

// MirrorTag returns c's fabric tag for a replication mirror write.
func MirrorTag(c Ctx) Tag { return Tag{Req: c.Req, Bucket: ReplMirror} }

// Span is one traced operation on a request's causal DAG: the op's
// kind, its initiating image and peer, its parent span, and the virtual
// times it reached each of the four completion levels (-1 = unreached).
type Span struct {
	ID     int32
	Req    int32 // request seq
	Parent int32 // parent span ID; 0 = request root
	Kind   string
	Img    int32
	Peer   int32
	// T holds the four completion-level stamps (init, local data,
	// local op, global), -1 where unreached. Init is when the op was
	// created.
	T [trace.NumStages]int64
}

// Req is one request's assembled path: its identity, the latency
// decomposition, and its spans in creation order.
type Req struct {
	Seq       int32
	Client    int32
	Scheduled int64
	// Done is the completion time, -1 for requests that never finished
	// (aborted, lost, or still pending at export).
	Done    int64
	Aborted bool
	// Buckets is the critical-path decomposition in virtual
	// nanoseconds; for finished requests the entries sum exactly to
	// Done - Scheduled.
	Buckets [NumBuckets]int64
	// Replays counts re-issues after failovers.
	Replays int32
	Spans   []Span
}

// Latency returns Done - Scheduled, or -1 for unfinished requests.
func (r *Req) Latency() int64 {
	if r.Done < 0 {
		return -1
	}
	return r.Done - r.Scheduled
}

// Export is the deterministic serialized form carried by the profile:
// bucket names for self-description plus every request sorted by seq.
type Export struct {
	Buckets []string
	Reqs    []Req
}

// reqState is what a run keeps of a request: no seq (its index) and no
// spans (op records), so the GC never scans the log. Export builds Reqs.
type reqState struct {
	scheduled sim.Time
	cursor    sim.Time
	doneAt    sim.Time // -1 unless finished
	buckets   [NumBuckets]int64
	client    int32
	replays   int32
	open      bool // Begin ran for this seq; false marks a hole in the log
	done      bool // finished or aborted
	aborted   bool
}

// Tracker assembles request paths. All methods are safe on a nil
// receiver (no-ops) and must otherwise run on the engine's admission
// strand — the same discipline as trace.Lifecycle.
type Tracker struct {
	// reqs holds request seq at record seq, by value (seqs are schedule
	// indices, so the log is dense); a seq not yet begun is a closed slot.
	reqs trace.Log[reqState]
	// ops holds the spans: every record under a traced request.
	ops      *trace.OpLog
	finished int
}

// New returns an enabled tracker whose spans are the records of ops
// under a traced request.
func New(ops *trace.OpLog) *Tracker { return &Tracker{ops: ops} }

// state returns the open slot of the request a Ctx or Tag names (req is
// seq + 1), nil when there is none; reqState.claim accepts nil.
func (t *Tracker) state(req int32) *reqState {
	if req <= 0 || int(req) > t.reqs.Len() {
		return nil
	}
	if st := t.reqs.At(int(req) - 1); st.open {
		return st
	}
	return nil
}

// Begin opens request seq's path with its claim cursor at the
// scheduled arrival and immediately claims [scheduled, now) as
// ClientQueue (open-loop queueing). A second Begin for the same seq is
// a failover re-issue: it claims [cursor, now) as ReplayReissue
// instead and increments the replay count. seq is a schedule index: the
// request log grows to seq + 1 slots, and a negative seq is ignored.
func (t *Tracker) Begin(seq, client int, scheduled, now sim.Time) {
	if t == nil || seq < 0 {
		return
	}
	for t.reqs.Len() <= seq {
		t.reqs.Append(reqState{})
	}
	st := t.reqs.At(seq)
	if st.open {
		if !st.done {
			st.claim(ReplayReissue, now)
			st.replays++
		}
		return
	}
	*st = reqState{scheduled: scheduled, cursor: scheduled, doneAt: -1, client: int32(client), open: true}
	st.claim(ClientQueue, now)
}

func (st *reqState) claim(b Bucket, at sim.Time) {
	if st == nil || st.done || at <= st.cursor {
		return
	}
	st.buckets[b] += int64(at - st.cursor)
	st.cursor = at
}

// Claim attributes [cursor, now) of c's request to bucket b. Claims at
// or before the cursor, for unknown requests, or after Finish are
// no-ops — late arrivals on already-completed requests (a mirror write
// landing after the reply) must not perturb the decomposition.
func (t *Tracker) Claim(c Ctx, b Bucket, now sim.Time) {
	if t == nil {
		return
	}
	t.state(c.Req).claim(b, now)
}

// ClaimTag is Claim for a fabric tag: the delivery leg of a tagged AM.
func (t *Tracker) ClaimTag(tag Tag, b Bucket, now sim.Time) {
	if t == nil {
		return
	}
	t.state(tag.Req).claim(b, now)
}

// Finish closes request seq at now: the residual [cursor, now) is
// claimed as HandlerService, so the buckets sum exactly to
// now - scheduled.
func (t *Tracker) Finish(seq int, now sim.Time) {
	if t == nil {
		return
	}
	st := t.state(int32(seq) + 1)
	if st == nil || st.done {
		return
	}
	st.claim(HandlerService, now)
	st.doneAt = now
	st.done = true
	t.finished++
}

// Abort closes request seq without a completion time (failed or lost
// requests are excluded from the exactness invariant, matching the
// Collector, which only histograms completed requests).
func (t *Tracker) Abort(seq int) {
	if t == nil {
		return
	}
	st := t.state(int32(seq) + 1)
	if st == nil || st.done {
		return
	}
	st.aborted = true
	st.done = true
}

// Finished reports how many requests have completed.
func (t *Tracker) Finished() int {
	if t == nil {
		return 0
	}
	return t.finished
}

// Export assembles the deterministic serialized form: requests sorted
// by seq, each carrying its spans in creation order. Span ids number the
// op records under a request in creation order, and a span's parent is
// its parent record's span. Safe on nil (returns nil).
func (t *Tracker) Export() *Export {
	if t == nil {
		return nil
	}
	e := &Export{Buckets: BucketNames()}
	byReq := make([][]Span, t.reqs.Len())
	spanOf := make([]int32, t.ops.Len()+1) // record id → span id
	var id int32
	t.ops.ReqOps(func(op trace.OpRecord, req, parent int32) {
		id++
		spanOf[op.ID] = id
		if seq := req - 1; int(seq) < len(byReq) {
			byReq[seq] = append(byReq[seq], Span{ID: id, Req: seq, Parent: parent,
				Kind: op.Kind, Img: int32(op.Img), Peer: int32(op.Peer),
				T: [trace.NumStages]int64{int64(op.Created), int64(op.T[1]), int64(op.T[2]), int64(op.T[3])}})
		}
	})
	for seq, spans := range byReq {
		for i := range spans {
			p := spans[i].Parent
			spans[i].Parent = 0
			if p > 0 && int(p) < len(spanOf) {
				spans[i].Parent = spanOf[p]
			}
		}
		if st := t.reqs.At(seq); st.open {
			e.Reqs = append(e.Reqs, Req{Seq: int32(seq), Client: st.client, Scheduled: int64(st.scheduled),
				Done: int64(st.doneAt), Aborted: st.aborted, Buckets: st.buckets, Replays: st.replays, Spans: spans})
		}
	}
	return e
}
