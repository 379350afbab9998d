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

// transition is one (op, stage) stamp in global stamp order. The
// append-only log is what lets a blocked interval name its releasers:
// every transition after the block began is an op that made progress
// while the proc was parked.
type transition struct {
	op    int64
	stage Stage
	at    sim.Time
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

// Lifecycle tracks operation lifecycles and blocked intervals. A nil
// *Lifecycle is fully inert: every method no-ops and OpNew returns 0,
// the "untracked" op ID that all stamping methods ignore — call sites
// need no enabled-checks and tracked/untracked runs stay bit-identical.
type Lifecycle struct {
	rec *Recorder // flow-event sink (may be disabled)
	// Each log keeps its first capacity records (4 × capacity transitions:
	// an op stamps at most four). Op id i is ops record i-1 — ids are
	// handed out at the append — so a stamp bounds-checks, not looks up.
	ops      Log[OpRecord]
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
// (and proportionally bounded transition/block logs).
func NewLifecycle(rec *Recorder, capacity int) *Lifecycle {
	if capacity <= 0 {
		capacity = 1 << 20
	}
	return &Lifecycle{
		rec:      rec,
		ops:      NewLog[OpRecord](capacity),
		trans:    NewLog[transition](4 * capacity),
		blocks:   NewLog[BlockRecord](capacity),
		finishes: NewLog[FinishRound](capacity),
		seenBy:   NewLog[int32](capacity),
	}
}

// Enabled reports whether the tracker records anything.
func (l *Lifecycle) Enabled() bool { return l != nil }

// OpNew registers a new operation and returns its ID (IDs start at 1;
// 0 means untracked — returned when the tracker is nil or full).
func (l *Lifecycle) OpNew(kind string, img, peer int, at sim.Time) int64 {
	if l == nil {
		return 0
	}
	if l.ops.Full() {
		l.opsDropped++
		return 0
	}
	id := int64(l.ops.Len()) + 1
	l.ops.Append(OpRecord{ID: id, Kind: kind, Img: img, Peer: peer, Created: at,
		T: [NumStages]sim.Time{-1, -1, -1, -1}})
	l.seenBy.Append(0)
	return id
}

// op returns the record of op id, nil for 0 (untracked) and unknown IDs.
func (l *Lifecycle) op(id int64) *OpRecord {
	if l == nil || id <= 0 || id > int64(l.ops.Len()) {
		return nil
	}
	return l.ops.At(int(id - 1))
}

// OpStage stamps a completion level on an op. Idempotent (first stamp
// wins) and a no-op for id 0 or unknown IDs. img is the image the
// transition is observed on (the remote image for global completion of
// a one-sided op), used for the flow event's location.
func (l *Lifecycle) OpStage(id int64, img int, stage Stage, at sim.Time) {
	op := l.op(id)
	if op == nil || stage >= NumStages || op.T[stage] >= 0 {
		return
	}
	if stage == StageLocalData && op.T[StageGlobal] >= 0 {
		// A local-data stamp arriving after the op's terminal stage (e.g.
		// a coalescing buffer flushed after the record was closed) would
		// put the transition log out of stage order. Drop and count it:
		// downstream attribution walks the log in order and a late stamp
		// would misattribute parks to an already-finished op.
		l.orderDropped++
		return
	}
	op.T[stage] = at
	if l.trans.Append(transition{op: id, stage: stage, at: at}) == nil {
		l.transDropped++
	}
	if l.rec.Enabled() {
		var phase byte
		switch stage {
		case StageInit:
			phase = 's'
		case StageGlobal:
			phase = 'f'
		default:
			phase = 't'
		}
		l.rec.Flow(img, 0, op.Kind, "oplife", at, id, phase)
	}
}

// Op returns the record for an op ID (zero record when unknown).
func (l *Lifecycle) Op(id int64) (OpRecord, bool) {
	op := l.op(id)
	if op == nil {
		return OpRecord{}, false
	}
	return *op, true
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
			for ; j > 0 && first[j-1] > tr.op; j-- {
				first[j] = first[j-1]
			}
			first[j] = tr.op
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

// Ops returns a copy of all op records.
func (l *Lifecycle) Ops() []OpRecord {
	if l == nil {
		return nil
	}
	return l.ops.Slice()
}

// Blocks returns a copy of all closed parked intervals.
func (l *Lifecycle) Blocks() []BlockRecord {
	if l == nil {
		return nil
	}
	return l.blocks.Slice()
}

// StageOrderViolations counts per-op stage-ordering violations: stamps
// the OpStage guard dropped (a local-data transition after the op's
// terminal stage) plus ops whose first logged transition is not
// StageInit. The stamping paths guarantee both invariants, so any
// non-zero count is a runtime ordering bug — tests pin this at zero.
func (l *Lifecycle) StageOrderViolations() int {
	if l == nil {
		return 0
	}
	n := l.orderDropped
	seen := make([]bool, l.ops.Len())
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

// Dropped returns per-log dropped-record counts (nil when none).
func (l *Lifecycle) Dropped() map[string]int {
	if l == nil {
		return nil
	}
	out := map[string]int{}
	if l.opsDropped > 0 {
		out["lifecycle-ops"] = l.opsDropped
	}
	if l.transDropped > 0 {
		out["lifecycle-transitions"] = l.transDropped
	}
	if l.blocksDropped > 0 {
		out["lifecycle-blocks"] = l.blocksDropped
	}
	if l.orderDropped > 0 {
		out["lifecycle-order"] = l.orderDropped
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
