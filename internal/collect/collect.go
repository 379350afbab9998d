// Package collect implements CAF 2.0 team collectives over binomial trees:
// barrier, broadcast, reduce, allreduce, gather, scatter, alltoall, scan,
// and sort (the full set envisioned in paper §II-C3), each in a
// synchronous and an asynchronous (handle-returning) variant.
//
// Asynchronous collectives progress entirely through active-message state
// machines — no simulated process blocks — and expose the two completion
// points the paper distinguishes (Fig. 4): local data completion (the
// image's buffer is usable) and local operation completion (all pair-wise
// communication involving the image is done). Global completion is the
// finish plane's business: tree messages are tracked in the caller's
// finish block so a finish block cannot close before enclosed collectives are
// globally complete.
//
// SPMD discipline: every member of a team must invoke the same collectives
// on that team in the same order; instances are matched by a per-(team,
// kind) sequence number.
package collect

import (
	"cmp"
	"fmt"
	"slices"

	"caf2go/internal/fabric"
	"caf2go/internal/failure"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/team"
)

// Tag is the fabric tag collect registers. Exported so layers above can
// avoid collisions.
const Tag uint16 = 100

// Op is a reduction operator over int64 vectors.
type Op uint8

// Reduction operators.
const (
	Sum Op = iota
	Prod
	Min
	Max
	BAnd
	BOr
	BXor
)

func (op Op) String() string {
	switch op {
	case Sum:
		return "sum"
	case Prod:
		return "prod"
	case Min:
		return "min"
	case Max:
		return "max"
	case BAnd:
		return "band"
	case BOr:
		return "bor"
	case BXor:
		return "bxor"
	}
	return "?"
}

// combine folds src into dst element-wise.
func (op Op) combine(dst, src []int64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("collect: vector length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		switch op {
		case Sum:
			dst[i] += v
		case Prod:
			dst[i] *= v
		case Min:
			if v < dst[i] {
				dst[i] = v
			}
		case Max:
			if v > dst[i] {
				dst[i] = v
			}
		case BAnd:
			dst[i] &= v
		case BOr:
			dst[i] |= v
		case BXor:
			dst[i] ^= v
		}
	}
}

type kind uint8

const (
	kBarrier kind = iota
	kBcast
	kReduce
	kAllreduce
	kGather
	kScatter
	kAlltoall
	kScan
	kSort
)

func (kd kind) String() string {
	return [...]string{"barrier", "bcast", "reduce", "allreduce", "gather",
		"scatter", "alltoall", "scan", "sort"}[kd]
}

type instKey struct {
	teamID int64
	kd     kind
	root   int // team rank of the root (0 where rootless)
	seq    uint64
}

type phase uint8

const (
	phaseUp phase = iota
	phaseDown
	phaseDirect // alltoall point-to-point
)

// colMsg is the payload of every collect active message. The *team.Team
// pointer rides along because the simulation shares one address space.
type colMsg struct {
	key     instKey
	t       *team.Team
	op      Op
	ph      phase
	fromRel int
	vec     []int64
	data    any
	bytes   int  // modeled wire size
	elem    int  // per-element payload size, for forwarding cost accounting
	dead    bool // released under sim.QuarantinePools
}

// Handle tracks one image's view of one asynchronous collective. An
// asynchronous call runs on a Handle its caller brings, typically a field
// of the caller's own record of the operation; the synchronous calls wait
// on one inside the instance's record, which the Comm recycles (DESIGN
// §4.14).
type Handle struct {
	img *rt.ImageKernel
	obs Observer // told of each completion level; nil on a synchronous call's

	localData bool
	localOp   bool
	isVec     bool         // the result is vec
	waiter    *sim.Proc    // the first proc to wait on the handle
	more      *[]*sim.Proc // the procs that waited after it; made by the second

	// The result of an asynchronous call (a synchronous one reads the
	// instance); a reduction's is vec, unboxed until Result asks for it.
	result any
	vec    []int64
}

// Observer is told of a Handle's completion levels: each method runs
// once, at its level, before the procs waiting on the handle are woken.
// A level may complete inside the call that starts the collective.
type Observer interface {
	LocalData()
	LocalOp()
}

// Observe makes o the handle's observer. Set it before the collective
// starts.
func (h *Handle) Observe(o Observer) { h.obs = o }

// LocalDataDone reports local data completion: the image's input buffer
// may be overwritten and its output (if any) read.
func (h *Handle) LocalDataDone() bool { return h.localData }

// LocalOpDone reports local operation completion: all pair-wise
// communication involving this image is finished.
func (h *Handle) LocalOpDone() bool { return h.localOp }

// Result returns the operation's local result: the received value for
// broadcast, the reduced vector for allreduce (and reduce at the root),
// the gathered []any at a gather root, the received element for scatter,
// the []any for alltoall, the prefix vector for scan, and the re-sorted
// keys for sort. Valid once LocalDataDone.
func (h *Handle) Result() any {
	if h.isVec {
		return h.vec
	}
	return h.result
}

// WaitLocalData parks p until local data completion. With a failure
// detector attached to the kernel, a declared death while the tree is
// incomplete aborts the wait (fail-stop) instead of hanging on a
// message the dead image will never forward.
func (h *Handle) WaitLocalData(p *sim.Proc) { h.wait(p, (*localDataWait)(h), &h.localData) }

// WaitLocalOp parks p until local operation completion, aborting like
// WaitLocalData when a failure is declared first.
func (h *Handle) WaitLocalOp(p *sim.Proc) { h.wait(p, (*localOpWait)(h), &h.localOp) }

// localDataWait and localOpWait are a Handle as what a proc waits on for
// each completion level, or a declared death; the conversion allocates
// nothing.
type (
	localDataWait Handle
	localOpWait   Handle
)

func (w *localDataWait) Wake() (string, bool) {
	return "collective local data", !w.localData && !w.img.Kernel().Detector().AnyDead()
}

func (w *localOpWait) Wake() (string, bool) {
	return "collective local op", !w.localOp && !w.img.Kernel().Detector().AnyDead()
}

func (h *Handle) wait(p *sim.Proc, w sim.Waker, done *bool) {
	h.addWaiter(p)
	p.WaitWith(w)
	if !*done {
		panic(failure.Abort{Err: h.img.Kernel().Detector().ErrFor("collective")})
	}
}

// addWaiter records p as a proc to wake at each completion.
func (h *Handle) addWaiter(p *sim.Proc) {
	if h.waiter == nil {
		h.waiter = p
		return
	}
	if h.more == nil {
		h.more = new([]*sim.Proc)
	}
	*h.more = append(*h.more, p)
}

// wakeWaiters unparks every proc that waited on the handle, in the order
// they started waiting.
func (h *Handle) wakeWaiters() {
	if h.waiter != nil {
		h.waiter.Unpark()
	}
	if h.more != nil {
		for _, w := range *h.more {
			w.Unpark()
		}
	}
}

func (h *Handle) fireLocalData() { h.fire(&h.localData, Observer.LocalData) }
func (h *Handle) fireLocalOp()   { h.fire(&h.localOp, Observer.LocalOp) }

// fire marks a completion level done, once: it tells the observer, then
// wakes the procs that wait on the handle.
func (h *Handle) fire(done *bool, tell func(Observer)) {
	if *done {
		return
	}
	*done = true
	if h.obs != nil {
		tell(h.obs)
	}
	h.wakeWaiters()
}

// inst is one image's state for one collective instance. It is a
// recycled record (DESIGN §4.14): taken by node.get, released when the
// instance is locally complete and, for a synchronous call, the caller
// has read its result.
type inst struct {
	key instKey
	t   *team.Team
	n   *node
	h   *Handle
	own Handle // the Handle of a synchronous call

	// finish is the finish block the tree messages are tracked in (0 =
	// untracked): the tracker makes their rt.Track at each send.
	finish int64

	relRank   int
	elemBytes int

	// Counters, 32 bits each so that the record with its Handle stays in
	// the 288-byte size class.
	upKids      int32 // contributions still expected
	direct      int32 // alltoall receipts still expected
	acksPending int32 // sends not yet delivered
	injPending  int32 // sends not yet injected (buffer still pinned)

	vec    []int64 // this subtree's partial reduction; capacity kept across reuse
	down   []int64 // allreduce: the reduced vector on its way down; capacity kept
	dataIn any     // down-phase or scatter payload received

	// Per-rank payloads. Gather, scan and sort hold this node's binomial
	// subtree, which is the contiguous relative-rank range [relRank,
	// relRank+span): slots[i] is relative rank relRank+i, so slots[0] is
	// the node's own entry. Alltoall holds its receipts by team rank.
	slots []any

	op       Op
	started  bool
	haveVec  bool
	haveData bool
	upSent   bool // contribution passed to parent (or root up complete)
	downDone bool // down phase forwarded (or not needed)

	// Release: a finished instance leaves its node's list; its record
	// goes back to the Comm once the synchronous caller (if any) is done
	// with own. dead marks a record released under sim.QuarantinePools.
	finished bool
	syncHeld bool
	dead     bool
}

// Tree selects the communication-tree shape. Binomial gives the
// O(log p) critical paths the paper's finish analysis assumes; Flat is
// the centralized star used as an ablation baseline (every message goes
// through relative rank 0, O(p) at the root).
type Tree uint8

// Tree shapes.
const (
	Binomial Tree = iota
	Flat
)

func (t Tree) String() string {
	if t == Flat {
		return "flat"
	}
	return "binomial"
}

// node is the per-image collect state. Both lists hold one entry per key
// in use, in key order: no table is sized by the machine.
type node struct {
	img   *rt.ImageKernel
	c     *Comm
	seqs  []seqEntry // next seq per (team, kind, root)
	insts []*inst    // live instances
}

// seqEntry is the last sequence number an image used for one (team,
// kind, root); key.seq is 0.
type seqEntry struct {
	key instKey
	seq uint64
}

// Comm provides collectives over an rt.Kernel. It owns the free lists
// a collective round's records are recycled through (DESIGN §4.14).
type Comm struct {
	k     *rt.Kernel
	tree  Tree
	nodes []node // one slab, by rank

	insts sim.FreeList[inst]
	msgs  sim.FreeList[colMsg]
}

// New registers collect handlers on every image of k, using binomial
// trees.
func New(k *rt.Kernel) *Comm { return NewWithTree(k, Binomial) }

// NewWithTree is New with an explicit tree shape.
func NewWithTree(k *rt.Kernel, tree Tree) *Comm {
	c := &Comm{k: k, tree: tree}
	// The nodes and the first entry of each node's lists come from one
	// slab each: an image that takes part in one collective at a time
	// never grows them.
	n := k.NumImages()
	c.nodes = make([]node, n)
	seqs, insts := make([]seqEntry, n), make([]*inst, n)
	for i := range c.nodes {
		c.nodes[i] = node{img: k.Image(i), c: c, seqs: seqs[i : i : i+1], insts: insts[i : i : i+1]}
	}
	k.RegisterHandler(Tag, func(d *rt.Delivery) {
		m := d.Payload.(*colMsg)
		c.nodes[d.Img.Rank()].onMsg(m, d.Track().ID)
		// The handler copied what it needed: the message is done.
		c.releaseMsg(m)
	})
	return c
}

// TreeShape reports the configured tree.
func (c *Comm) TreeShape() Tree { return c.tree }

func classFor(k *rt.Kernel, bytes int) fabric.Class {
	if bytes > k.Fabric().MaxMedium() {
		return fabric.RDMA
	}
	return fabric.AMMedium
}

// cmpKey orders instance keys by team, kind, root, then seq.
func cmpKey(a, b instKey) int {
	if c := cmp.Compare(a.teamID, b.teamID); c != 0 {
		return c
	}
	if c := cmp.Compare(a.kd, b.kd); c != 0 {
		return c
	}
	if c := cmp.Compare(a.root, b.root); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// nextSeq allocates the local sequence number for a new instance.
func (n *node) nextSeq(teamID int64, kd kind, root int) uint64 {
	k := instKey{teamID: teamID, kd: kd, root: root}
	i, ok := slices.BinarySearchFunc(n.seqs, k, func(e seqEntry, k instKey) int { return cmpKey(e.key, k) })
	if !ok {
		n.seqs = slices.Insert(n.seqs, i, seqEntry{key: k})
	}
	n.seqs[i].seq++
	return n.seqs[i].seq
}

// find returns the position of key in the node's live instances, and
// whether it is there.
func (n *node) find(key instKey) (int, bool) {
	return slices.BinarySearchFunc(n.insts, key, func(in *inst, k instKey) int { return cmpKey(in.key, k) })
}

// get returns the instance for key, creating a passive one if needed.
func (n *node) get(key instKey, t *team.Team, finish int64) *inst {
	at, ok := n.find(key)
	if ok {
		return n.insts[at]
	}
	in := n.c.insts.New()
	size := t.Size()
	*in = inst{key: key, t: t, finish: finish, n: n,
		vec: in.vec[:0], down: in.down[:0]}
	in.relRank = relOf(t.MustRank(n.img.Rank()), key.root, size)
	for c := n.firstChild(in.relRank, size); c >= 0; c = n.nextChild(in.relRank, c, size) {
		in.upKids++
	}
	in.direct = int32(size - 1)
	switch key.kd {
	case kGather, kScan, kSort:
		in.slots = make([]any, n.spanOf(in.relRank, size))
	case kAlltoall:
		in.slots = make([]any, size)
	}
	n.insts = slices.Insert(n.insts, at, in)
	return in
}

// firstChild returns a relative rank's first child under the node's
// tree, or -1 if it has none; nextChild returns the child after c, or
// -1 after the last. Children come in increasing relative rank.
func (n *node) firstChild(rel, size int) int { return n.nextChild(rel, rel, size) }

func (n *node) nextChild(rel, c, size int) int {
	if n.c.tree == Flat {
		if rel != 0 {
			return -1
		}
		c++
	} else {
		// Binomial: rel+bit for bit = 1, 2, 4, ... below rel's lowest
		// set bit (any bit for the root).
		bit := 1
		if c != rel {
			bit = (c - rel) << 1
		}
		if rel != 0 && bit >= rel&-rel {
			return -1
		}
		c = rel + bit
	}
	if c >= size {
		return -1
	}
	return c
}

// parentOf returns a relative rank's parent under the node's tree.
func (n *node) parentOf(rel int) int {
	if n.c.tree == Flat {
		return 0
	}
	return parentRel(rel)
}

// spanOf returns the width of rel's contiguous subtree under the tree:
// its ranks are [rel, rel+spanOf(rel, size)).
func (n *node) spanOf(rel, size int) int {
	switch {
	case rel == 0:
		return size
	case n.c.tree == Flat:
		return 1
	}
	return min(rel&-rel, size-rel)
}

// relOf maps a team rank into the tree's relative rank space (root ↦ 0).
func relOf(teamRank, root, size int) int {
	return (teamRank - root + size) % size
}

// absOf maps a relative rank back to a team rank.
func absOf(rel, root, size int) int {
	return (rel + root) % size
}

// parentRel returns the binomial-tree parent of relative rank r (r > 0).
func parentRel(r int) int { return r & (r - 1) }

// onMsg processes one delivered tree message.
func (n *node) onMsg(m *colMsg, finish int64) {
	if m.dead {
		panic("collect: tree message used after its handler")
	}
	in := n.get(m.key, m.t, finish)
	if in.finish == 0 {
		in.finish = finish
	}
	if in.elemBytes == 0 {
		in.elemBytes = m.elem
	}
	switch m.ph {
	case phaseUp:
		in.upKids--
		if m.vec != nil {
			in.contrib(m.op, m.vec)
		}
		if sub, ok := m.data.([]any); ok {
			copy(in.slots[m.fromRel-in.relRank:], sub)
		}
		n.tryAdvanceUp(in)
	case phaseDown:
		in.dataIn = m.data
		if m.vec != nil {
			in.down = append(in.down[:0], m.vec...)
		}
		in.haveData = true
		n.advanceDown(in)
	case phaseDirect:
		in.direct--
		in.slots[m.fromRel] = m.data
		n.tryFinishDirect(in)
	}
}

// maybeFinish fires local-op completion and retires the instance once
// all of its conditions hold.
func (n *node) maybeFinish(in *inst) {
	if !in.started || in.h == nil {
		return
	}
	if in.acksPending > 0 {
		return
	}
	switch in.key.kd {
	case kBarrier, kAllreduce, kScan, kSort:
		if !in.downDone {
			return
		}
	case kBcast, kScatter:
		if !in.downDone {
			return
		}
	case kReduce, kGather:
		if !in.upSent {
			return
		}
	case kAlltoall:
		if in.direct > 0 {
			return
		}
	}
	in.h.fireLocalOp()
	if at, ok := n.find(in.key); ok {
		n.insts = slices.Delete(n.insts, at, at+1)
	}
	in.finished = true
	if !in.syncHeld {
		n.c.releaseInst(in)
	}
}

// doneWith is a synchronous call's last look at its instance: the
// record goes back once the instance has finished too.
func (c *Comm) doneWith(in *inst) {
	in.syncHeld = false
	if in.finished {
		c.releaseInst(in)
	}
}

// releaseInst returns a retired instance's record to the free list. Its
// last references were its node's list, which it has left, and the acks
// of its tree messages, which have all returned; the buffers it keeps
// for reuse are no longer referenced by any message. The record is
// cleared in place: a literal that keeps the buffers would be built in a
// 320-byte temporary, which, inlined into every blocking collective,
// would double the stack of each image's main.
func (c *Comm) releaseInst(in *inst) {
	vec, down := in.vec[:0], in.down[:0]
	*in = inst{}
	in.vec, in.down = vec, down
	in.dead = c.insts.Put(in)
}

// releaseMsg returns a handled tree message's record: the receiving
// handler was its last reader.
func (c *Comm) releaseMsg(m *colMsg) {
	*m = colMsg{}
	m.dead = c.msgs.Put(m)
}

// Delivered is the ack of one of the instance's tree messages.
func (in *inst) Delivered() {
	if in.dead {
		panic("collect: ack reached a released collective instance")
	}
	in.acksPending--
	in.n.maybeFinish(in)
}

// Abandoned leaves a lost tree message's ack outstanding: the instance
// never completes locally, and waiters abort on the declared death.
func (in *inst) Abandoned() {
	if in.dead {
		panic("collect: ack reached a released collective instance")
	}
}

// Injected counts one of the instance's sends off its source buffer.
func (in *inst) Injected() {
	in.injPending--
	in.n.checkLocalData(in)
}
