package trace

import "caf2go/internal/sim"

// Stage is one of the paper's Fig. 1 completion levels. Every tracked
// asynchronous operation passes through them in order: initiation (the
// call returned, operands may still be live), local data (source/dest
// buffers reusable), local operation (locally complete), and global
// completion (complete everywhere, including the remote side).
type Stage uint8

const (
	StageInit Stage = iota
	StageLocalData
	StageLocalOp
	StageGlobal
	NumStages
)

func (s Stage) String() string {
	switch s {
	case StageInit:
		return "initiation"
	case StageLocalData:
		return "local-data"
	case StageLocalOp:
		return "local-op"
	case StageGlobal:
		return "global"
	}
	return "unknown"
}

// OpRecord is the lifecycle of one asynchronous operation: when each
// completion level was reached, in virtual time. A stage time of -1
// means the stage was never reached (e.g. an op abandoned by a failure
// never completes globally... except abandonment itself stamps the
// final stages, so -1 in practice means the run ended first).
type OpRecord struct {
	ID   int64
	Kind string // "copy", "get", "put", "spawn", "notify", "coll:<name>", ...
	Img  int    // initiating image
	Peer int    // target image, or -1 when not peer-directed
	// Created is when the op object came into being; T[StageInit] may be
	// later (e.g. relaxed-mode deferral delays initiation).
	Created sim.Time
	T       [NumStages]sim.Time
}

// opRec is a traced op's one record: its lifecycle and, under a traced
// request, its node on the request's causal DAG. It holds no pointer, so
// the GC never scans the log's chunks.
type opRec struct {
	created sim.Time
	t       [NumStages]sim.Time // -1 where unreached
	img     int32
	peer    int32
	req     int32  // request seq + 1; 0 = not under a traced request
	parent  int32  // record id of the op it was initiated under; 0 = the request root
	kind    uint32 // index into OpLog.kinds
}

// OpLog keeps one record per traced op (record id i is record i-1) for
// the lifecycle tracker, whose ops are the run's first capacity ops, and
// the request-path tracker, which reads the records under a request. A
// nil *OpLog is inert: New returns the untracked id 0. Record ids are
// 32-bit (opRec.parent, transition.op), so NewLifecycle clamps its
// capacity to math.MaxInt32.
type OpLog struct {
	recs     Log[opRec]
	kinds    []string   // each distinct op kind once: a handful, found by a scan, not a hash
	life     *Lifecycle // nil when lifecycles are off
	requests bool       // keep a record of every op under a traced request
}

// NewOpLog returns the op log of life (nil for none) and, when requests
// is set, of the ops under traced requests; nil for neither.
func NewOpLog(life *Lifecycle, requests bool) *OpLog {
	if life == nil && !requests {
		return nil
	}
	o := &OpLog{life: life, requests: requests}
	if life != nil {
		life.ops = o
		if !requests {
			o.recs = NewLog[opRec](life.capacity)
		}
	}
	return o
}

// Len returns the number of records.
func (o *OpLog) Len() int {
	if o == nil {
		return 0
	}
	return o.recs.Len()
}

// New records an op initiated on img at time at, under request req
// (seq + 1; 0 for none) and parented to record parent, and returns its
// record id: 0 when no tracker keeps the op.
func (o *OpLog) New(kind string, img, peer int, at sim.Time, req, parent int32) int64 {
	if o == nil {
		return 0
	}
	if !o.requests {
		req, parent = 0, 0
	}
	if !o.life.admit() && req == 0 {
		return 0
	}
	k := 0 // kind's index in the kind table, added on first use
	for k < len(o.kinds) && o.kinds[k] != kind {
		k++
	}
	if k == len(o.kinds) {
		o.kinds = append(o.kinds, kind)
	}
	o.recs.Append(opRec{created: at, t: [NumStages]sim.Time{-1, -1, -1, -1},
		img: int32(img), peer: int32(peer), req: req, parent: parent, kind: uint32(k)})
	return int64(o.recs.Len())
}

// Stage stamps a completion level on record id, observed on image img
// (the remote image for global completion of a one-sided op). First stamp
// wins; id 0 and unknown ids are ignored. A lifecycle op's stamp is also
// its transition, the one copy of the fact.
func (o *OpLog) Stage(id int64, img int, stage Stage, at sim.Time) {
	if o == nil || id <= 0 || id > int64(o.recs.Len()) || stage >= NumStages {
		return
	}
	r := o.recs.At(int(id - 1))
	if r.t[stage] >= 0 {
		return
	}
	life := o.life != nil && id <= int64(o.life.capacity)
	if stage == StageLocalData && r.t[StageGlobal] >= 0 {
		// A local-data stamp arriving after the op's terminal stage (e.g.
		// a coalescing buffer flushed after the record was closed) would
		// put the transition log out of stage order. Drop it, and count it
		// for a lifecycle op: downstream attribution walks the log in
		// order and a late stamp would misattribute parks to an
		// already-finished op.
		if life {
			o.life.orderDropped++
		}
		return
	}
	r.t[stage] = at
	if life && o.life.trans.Append(transition{op: int32(id), img: int32(img), stage: stage}) == nil {
		o.life.transDropped++
	}
}

// ReqOps calls fn on every record under a traced request, in creation
// order, with its request (seq + 1) and the record id of its parent.
func (o *OpLog) ReqOps(fn func(op OpRecord, req, parent int32)) {
	for i := 0; i < o.Len(); i++ {
		if r := o.recs.At(i); r.req != 0 {
			fn(o.record(r, int64(i)+1), r.req, r.parent)
		}
	}
}

// transition is one (op, stage) stamp in global stamp order. The
// append-only log is what lets a blocked interval name its releasers:
// every transition after the block began is an op that made progress
// while the proc was parked. It is also the op's Chrome flow point, at
// its op record's t[stage]: the first stamp wins, so it keeps no time.
type transition struct {
	op    int32 // record id
	img   int32
	stage Stage
}

// maxReleasers bounds the op IDs stored per block record; the full
// distinct count is always kept in ReleaserCount.
const maxReleasers = 8

// BlockRecord is one parked interval of a proc: which primitive it
// parked in, for how long, and which ops completed stages during the
// park (the ops whose progress released it).
type BlockRecord struct {
	Img   int
	Tid   int
	Prim  string // "finish", "cofence", "event_wait", "lock", "collective", ...
	Start sim.Time
	Dur   sim.Time
	// Releasers holds up to maxReleasers distinct op IDs that advanced
	// past initiation during the park; ReleaserCount is the full count.
	Releasers     []int64 `json:",omitempty"`
	ReleaserCount int
}

// FinishRound records one finish block's termination-detection phase:
// how many allreduce rounds the Fig. 7 loop took and when each round
// completed — the observational check of Theorem 1's ≤ L+1 bound.
type FinishRound struct {
	Img     int
	Start   sim.Time // detection began (body done, waiting on quiescence)
	End     sim.Time
	Rounds  int
	RoundAt []sim.Time `json:",omitempty"`
}

// BlockToken marks an open parked interval; obtained from BeginBlock
// and redeemed by EndBlock.
type BlockToken struct {
	img, tid int
	prim     string
	start    sim.Time
	transIdx int
	ok       bool
}

// Lifecycle tracks operation lifecycles and blocked intervals; its ops
// are the first capacity records of its OpLog. A nil *Lifecycle is fully
// inert — call sites need no enabled-checks and tracked/untracked runs
// stay bit-identical.
type Lifecycle struct {
	ops      *OpLog // set by NewOpLog
	capacity int
	// Each log keeps its first capacity records (4 × capacity transitions:
	// an op stamps at most four).
	trans    Log[transition]
	blocks   Log[BlockRecord]
	finishes Log[FinishRound]
	// seenBy[i] is the serial (index + 1) of the last block that counted
	// op i+1 a releaser: distinct releasers without a set per park.
	seenBy Log[int32]

	opsDropped    int
	transDropped  int
	blocksDropped int
	orderDropped  int
}

// NewLifecycle returns a tracker holding at most capacity op records
// (and proportionally bounded transition/block logs); rec, if not nil,
// exports its transitions as flow points.
func NewLifecycle(rec *Recorder, capacity int) *Lifecycle {
	if capacity <= 0 {
		capacity = 1 << 20
	}
	capacity = min(capacity, 1<<31-1) // math.MaxInt32
	l := &Lifecycle{
		capacity: capacity,
		trans:    NewLog[transition](4 * capacity),
		blocks:   NewLog[BlockRecord](capacity),
		finishes: NewLog[FinishRound](capacity),
		seenBy:   NewLog[int32](capacity),
	}
	if rec != nil {
		rec.life = l
	}
	return l
}

// admit reports whether the next op of the run is one of this tracker's
// (one of its first capacity), counting it dropped when it is not.
func (l *Lifecycle) admit() bool {
	if l == nil {
		return false
	}
	if l.seenBy.Append(0) == nil {
		l.opsDropped++
		return false
	}
	return true
}

// n returns the number of the tracker's ops.
func (l *Lifecycle) n() int { return min(l.ops.Len(), l.capacity) }

// record is record r's exported form; id is its record id.
func (o *OpLog) record(r *opRec, id int64) OpRecord {
	return OpRecord{ID: id, Kind: o.kinds[r.kind], Img: int(r.img), Peer: int(r.peer), Created: r.created, T: r.t}
}

// BeginBlock opens a parked interval on (img, tid) in primitive prim.
func (l *Lifecycle) BeginBlock(img, tid int, prim string, at sim.Time) BlockToken {
	if l == nil {
		return BlockToken{}
	}
	return BlockToken{img: img, tid: tid, prim: prim, start: at,
		transIdx: l.trans.Len(), ok: true}
}

// EndBlock closes a parked interval, attributing it to the distinct ops
// that completed stages (past initiation) while it was open. Intervals
// of zero virtual duration are discarded — the proc never parked.
func (l *Lifecycle) EndBlock(tok BlockToken, at sim.Time) {
	if l == nil || !tok.ok {
		return
	}
	dur := at - tok.start
	if dur <= 0 {
		return
	}
	if l.blocks.Full() {
		l.blocksDropped++
		return
	}
	// The first maxReleasers distinct ops in stamp order, kept sorted by id.
	serial := int32(l.blocks.Len()) + 1
	var first [maxReleasers]int64
	n := 0
	for i := tok.transIdx; i < l.trans.Len(); i++ {
		tr := l.trans.At(i)
		if tr.stage == StageInit {
			continue
		}
		mark := l.seenBy.At(int(tr.op - 1))
		if *mark == serial {
			continue
		}
		*mark = serial
		if n < maxReleasers {
			j := n
			for ; j > 0 && first[j-1] > int64(tr.op); j-- {
				first[j] = first[j-1]
			}
			first[j] = int64(tr.op)
		}
		n++
	}
	br := l.blocks.Append(BlockRecord{Img: tok.img, Tid: tok.tid, Prim: tok.prim,
		Start: tok.start, Dur: dur, ReleaserCount: n})
	if n > 0 {
		br.Releasers = append([]int64(nil), first[:min(n, maxReleasers)]...)
	}
}

// AddFinish records one finish block's detection rounds.
func (l *Lifecycle) AddFinish(fr FinishRound) {
	if l != nil {
		l.finishes.Append(fr)
	}
}

// Ops returns a copy of all op records (nil when none).
func (l *Lifecycle) Ops() []OpRecord {
	if l == nil || l.n() == 0 {
		return nil
	}
	out := make([]OpRecord, l.n())
	for i := range out {
		out[i] = l.ops.record(l.ops.recs.At(i), int64(i)+1)
	}
	return out
}

// Blocks returns a copy of all closed parked intervals.
func (l *Lifecycle) Blocks() []BlockRecord {
	if l == nil {
		return nil
	}
	return l.blocks.Slice()
}

// StageOrderViolations counts per-op stage-ordering violations: stamps
// the OpLog.Stage guard dropped (a local-data transition after the op's
// terminal stage) plus ops whose first logged transition is not
// StageInit. The stamping paths guarantee both invariants, so any
// non-zero count is a runtime ordering bug — tests pin this at zero.
func (l *Lifecycle) StageOrderViolations() int {
	if l == nil {
		return 0
	}
	n := l.orderDropped
	seen := make([]bool, l.n())
	for i := 0; i < l.trans.Len(); i++ {
		if tr := l.trans.At(i); !seen[tr.op-1] {
			seen[tr.op-1] = true
			if tr.stage != StageInit {
				n++
			}
		}
	}
	return n
}

// FinishRounds returns all recorded finish detection phases.
func (l *Lifecycle) FinishRounds() []FinishRound {
	if l == nil {
		return nil
	}
	return l.finishes.Slice()
}

// Dropped returns the counts of records a run's recorder (per event
// category) and lifecycle tracker (per log) dropped at capacity, in one
// map; nil when nothing was dropped.
func Dropped(r *Recorder, l *Lifecycle) map[string]int {
	var out map[string]int
	add := func(key string, n int) {
		if n > 0 {
			if out == nil {
				out = make(map[string]int)
			}
			out[key] += n
		}
	}
	if r != nil {
		for _, c := range r.dropped {
			add(c.cat, c.n)
		}
		add(flowCat, r.life.flows()-(r.Len()-r.events.Len()))
	}
	if l != nil {
		add("lifecycle-ops", l.opsDropped)
		add("lifecycle-transitions", l.transDropped)
		add("lifecycle-blocks", l.blocksDropped)
		add("lifecycle-order", l.orderDropped)
	}
	return out
}
