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
// finish plane's business: tree messages carry the caller's tracking
// context so a finish block cannot close before enclosed collectives are
// globally complete.
//
// SPMD discipline: every member of a team must invoke the same collectives
// on that team in the same order; instances are matched by a per-(team,
// kind) sequence number.
package collect

import (
	"fmt"

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
	bytes   int // modeled wire size
	elem    int // per-element payload size, for forwarding cost accounting
}

// Handle tracks one image's view of one asynchronous collective.
type Handle struct {
	img  *rt.ImageKernel
	kd   kind
	inst *inst

	localData bool
	localOp   bool
	ldCbs     []func()
	loCbs     []func()
	waiters   []*sim.Proc

	result any
}

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
func (h *Handle) Result() any { return h.result }

// OnLocalData registers fn to run at local data completion (immediately
// if already complete).
func (h *Handle) OnLocalData(fn func()) {
	if h.localData {
		fn()
		return
	}
	h.ldCbs = append(h.ldCbs, fn)
}

// OnLocalOp registers fn to run at local operation completion.
func (h *Handle) OnLocalOp(fn func()) {
	if h.localOp {
		fn()
		return
	}
	h.loCbs = append(h.loCbs, fn)
}

// WaitLocalData parks p until local data completion. With a failure
// detector attached to the kernel, a declared death while the tree is
// incomplete aborts the wait (fail-stop) instead of hanging on a
// message the dead image will never forward.
func (h *Handle) WaitLocalData(p *sim.Proc) {
	if !h.WaitLocalDataErr(p) {
		panic(failure.Abort{Err: h.img.Kernel().Detector().ErrFor("collective")})
	}
}

// WaitLocalDataErr is WaitLocalData for callers that recover rather
// than fail-stop: it reports false instead of panicking when a failure
// is declared before the tree completes. The finish plane's resilient
// termination detection uses it to fall back to the survivor poll
// protocol. The waiter mechanics are identical to WaitLocalData's, so
// an idle detector perturbs nothing.
func (h *Handle) WaitLocalDataErr(p *sim.Proc) bool {
	det := h.img.Kernel().Detector()
	h.waiters = append(h.waiters, p)
	p.WaitUntil("collective local data", func() bool { return h.localData || det.AnyDead() })
	return h.localData
}

// WaitLocalOp parks p until local operation completion, aborting like
// WaitLocalData when a failure is declared first.
func (h *Handle) WaitLocalOp(p *sim.Proc) {
	det := h.img.Kernel().Detector()
	h.waiters = append(h.waiters, p)
	p.WaitUntil("collective local op", func() bool { return h.localOp || det.AnyDead() })
	if !h.localOp {
		panic(failure.Abort{Err: det.ErrFor("collective")})
	}
}

func (h *Handle) fireLocalData() {
	if h.localData {
		return
	}
	h.localData = true
	cbs := h.ldCbs
	h.ldCbs = nil
	for _, fn := range cbs {
		fn()
	}
	for _, w := range h.waiters {
		w.Unpark()
	}
}

func (h *Handle) fireLocalOp() {
	if h.localOp {
		return
	}
	h.localOp = true
	cbs := h.loCbs
	h.loCbs = nil
	for _, fn := range cbs {
		fn()
	}
	for _, w := range h.waiters {
		w.Unpark()
	}
}

// inst is one image's state for one collective instance.
type inst struct {
	key   instKey
	t     *team.Team
	op    Op
	track rt.Track

	started bool
	h       *Handle

	relRank  int
	children []int
	nKids    int

	// up phase
	vec      []int64
	haveVec  bool
	upKids   int // contributions still expected
	dataIn   any // down-phase or scatter payload received
	haveData bool

	// Per-rank payloads. Gather, scan and sort hold this node's binomial
	// subtree, which is the contiguous relative-rank range [relRank,
	// relRank+span): slots[i] is relative rank relRank+i, so slots[0] is
	// the node's own entry. Alltoall holds its receipts by team rank.
	slots  []any
	direct int // alltoall receipts still expected

	n           *node
	acksPending int  // sends not yet delivered
	injPending  int  // sends not yet injected (buffer still pinned)
	upSent      bool // contribution passed to parent (or root up complete)
	downDone    bool // down phase forwarded (or not needed)
	elemBytes   int
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

// node is the per-image collect state.
type node struct {
	img   *rt.ImageKernel
	tree  Tree
	seqs  map[instKey]uint64 // next seq per (team, kind, root); key.seq=0
	insts map[instKey]*inst
}

// Comm provides collectives over an rt.Kernel.
type Comm struct {
	k     *rt.Kernel
	tree  Tree
	nodes []*node
}

// New registers collect handlers on every image of k, using binomial
// trees.
func New(k *rt.Kernel) *Comm { return NewWithTree(k, Binomial) }

// NewWithTree is New with an explicit tree shape.
func NewWithTree(k *rt.Kernel, tree Tree) *Comm {
	c := &Comm{k: k, tree: tree}
	c.nodes = make([]*node, k.NumImages())
	for i := range c.nodes {
		c.nodes[i] = &node{
			img:   k.Image(i),
			tree:  tree,
			seqs:  make(map[instKey]uint64),
			insts: make(map[instKey]*inst),
		}
	}
	k.RegisterHandler(Tag, func(d *rt.Delivery) {
		m := d.Payload.(*colMsg)
		c.nodes[d.Img.Rank()].onMsg(m, d.Track())
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

// nextSeq allocates the local sequence number for a new instance.
func (n *node) nextSeq(teamID int64, kd kind, root int) uint64 {
	k := instKey{teamID: teamID, kd: kd, root: root}
	n.seqs[k]++
	return n.seqs[k]
}

// get returns the instance for key, creating a passive one if needed.
func (n *node) get(key instKey, t *team.Team, track rt.Track) *inst {
	in, ok := n.insts[key]
	if !ok {
		size := t.Size()
		in = &inst{key: key, t: t, track: track, n: n}
		in.relRank = relOf(t.MustRank(n.img.Rank()), key.root, size)
		in.children = n.childrenOf(in.relRank, size)
		in.nKids = len(in.children)
		in.upKids = in.nKids
		in.direct = size - 1
		switch key.kd {
		case kGather, kScan, kSort:
			in.slots = make([]any, n.spanOf(in.relRank, size))
		case kAlltoall:
			in.slots = make([]any, size)
		}
		n.insts[key] = in
	}
	return in
}

// childrenOf returns a relative rank's children under the node's tree.
func (n *node) childrenOf(rel, size int) []int {
	if n.tree == Flat {
		if rel != 0 {
			return nil
		}
		out := make([]int, 0, size-1)
		for c := 1; c < size; c++ {
			out = append(out, c)
		}
		return out
	}
	return childrenRel(rel, size)
}

// parentOf returns a relative rank's parent under the node's tree.
func (n *node) parentOf(rel int) int {
	if n.tree == Flat {
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
	case n.tree == Flat:
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

// childrenRel returns the binomial-tree children of relative rank r.
func childrenRel(r, size int) []int {
	low := r & -r
	if r == 0 {
		low = 1
		for low < size {
			low <<= 1
		}
		if size == 1 {
			low = 1
		}
	}
	var out []int
	for bit := 1; bit < low; bit <<= 1 {
		c := r | bit
		if c < size {
			out = append(out, c)
		}
	}
	return out
}

// onMsg processes one delivered tree message.
func (n *node) onMsg(m *colMsg, track rt.Track) {
	in := n.get(m.key, m.t, track)
	if !in.track.Tracked() {
		in.track = track
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
			in.dataIn = append([]int64(nil), m.vec...)
		}
		in.haveData = true
		n.advanceDown(in)
	case phaseDirect:
		in.direct--
		in.slots[m.fromRel] = m.data
		n.tryFinishDirect(in)
	}
}

// maybeFinish fires local-op completion and garbage-collects the instance
// once all of its conditions hold.
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
	delete(n.insts, in.key)
}

// Delivered is the ack of one of the instance's tree messages.
func (in *inst) Delivered() {
	in.acksPending--
	in.n.maybeFinish(in)
}

// Abandoned leaves a lost tree message's ack outstanding: the instance
// never completes locally, and waiters abort on the declared death.
func (in *inst) Abandoned() {}
