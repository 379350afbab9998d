package collect

import (
	"fmt"
	"slices"

	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/team"
)

const msgHeaderBytes = 16

// sendTree dispatches one tree message, with msg's phase, payload and
// size, on a recycled record. The instance is the send's completion
// record: it counts the delivery (pair-wise completion) and, with
// inject, the injection (source-buffer reuse).
func (n *node) sendTree(in *inst, dstTeamRank int, msg colMsg, inject bool) {
	m := n.c.msgs.New()
	*m = msg
	m.key = in.key
	m.t = in.t
	m.op = in.op
	m.elem = in.elemBytes
	in.acksPending++
	if inject {
		in.injPending++
	}
	n.img.Send(in.t.WorldRank(dstTeamRank), Tag, m, rt.SendOpts{
		Finish: in.finish,
		Class:  classFor(n.img.Kernel(), m.bytes),
		Bytes:  m.bytes,
		// Collective tree messages sit on the critical path of barriers
		// and finish termination rounds: never coalesce them.
		NoCoalesce: true,
		Injected:   inject,
		Done:       in,
	})
}

// start begins this image's participation in a collective instance. An
// asynchronous call runs on its caller's Handle h, and the instance may
// be gone when start returns. A synchronous one (h nil) waits on the
// Handle inside the instance's record, which stays the caller's until
// doneWith.
func (c *Comm) start(h *Handle, img *rt.ImageKernel, t *team.Team, kd kind, root int,
	op Op, vec []int64, data any, elemBytes int, finish int64) *inst {

	if root < 0 || root >= t.Size() {
		panic(fmt.Sprintf("collect: root %d out of range for %v", root, t))
	}
	// A collective is a synchronization point: drain this image's
	// coalescing buffers before joining.
	img.FlushCoalesced()
	n := &c.nodes[img.Rank()]
	key := instKey{teamID: t.ID(), kd: kd, root: root,
		seq: n.nextSeq(t.ID(), kd, root)}
	in := n.get(key, t, finish)
	if in.started {
		panic("collect: duplicate start for instance " + kd.String())
	}
	if finish != 0 {
		in.finish = finish
	}
	in.started = true
	in.op = op
	in.elemBytes = elemBytes
	if h == nil {
		h = &in.own
		in.syncHeld = true
	}
	h.img = img
	in.h = h

	myTeamRank := t.MustRank(img.Rank())
	switch kd {
	case kBarrier:
		n.tryAdvanceUp(in)
	case kBcast:
		if in.relRank == 0 {
			in.dataIn = data
			in.haveData = true
			h.result = data
			n.forwardDown(in)
		} else if in.haveData {
			h.result = in.dataIn
		}
	case kReduce, kAllreduce:
		in.contrib(op, vec)
		n.tryAdvanceUp(in)
	case kGather:
		in.slots[0] = data
		n.tryAdvanceUp(in)
	case kScatter:
		if in.relRank == 0 {
			vals := data.([]any)
			if len(vals) != t.Size() {
				panic(fmt.Sprintf("collect: scatter got %d values for team of %d", len(vals), t.Size()))
			}
			bundle := make([]any, len(vals))
			for tr, v := range vals {
				bundle[relOf(tr, root, len(vals))] = v
			}
			h.result = vals[myTeamRank]
			n.forwardBundles(in, bundle)
		} else if in.haveData {
			h.result = in.dataIn.([]any)[0]
		}
	case kAlltoall:
		vals := data.([]any)
		if len(vals) != t.Size() {
			panic(fmt.Sprintf("collect: alltoall got %d values for team of %d", len(vals), t.Size()))
		}
		in.slots[myTeamRank] = vals[myTeamRank]
		for tr := 0; tr < t.Size(); tr++ {
			if tr == myTeamRank {
				continue
			}
			n.sendTree(in, tr, colMsg{
				ph:      phaseDirect,
				fromRel: myTeamRank,
				data:    vals[tr],
				bytes:   elemBytes + msgHeaderBytes,
			}, true)
		}
		n.tryFinishDirect(in)
	case kScan, kSort:
		in.slots[0] = append([]int64(nil), vec...)
		n.tryAdvanceUp(in)
	default:
		panic("collect: unknown kind")
	}

	n.checkLocalData(in)
	n.maybeFinish(in)
	return in
}

// contrib folds this image's vector into the partial reduction.
func (in *inst) contrib(op Op, vec []int64) {
	if !in.haveVec {
		in.vec = append(in.vec[:0], vec...)
		in.haveVec = true
	} else {
		op.combine(in.vec, vec)
	}
}

// tryAdvanceUp fires when a node may pass its subtree contribution to its
// parent (or, at the tree root, complete the up phase).
func (n *node) tryAdvanceUp(in *inst) {
	if !in.started || in.upKids > 0 || in.upSent {
		return
	}
	in.upSent = true
	if in.relRank == 0 {
		n.rootUpComplete(in)
		return
	}
	parent := absOf(n.parentOf(in.relRank), in.key.root, in.t.Size())
	switch in.key.kd {
	case kBarrier:
		n.sendTree(in, parent, colMsg{ph: phaseUp, bytes: msgHeaderBytes}, false)
	case kReduce, kAllreduce:
		needInject := in.key.kd == kReduce // reduce: local data = contribution on the wire
		n.sendTree(in, parent, colMsg{
			ph:    phaseUp,
			vec:   in.vec,
			bytes: 8*len(in.vec) + msgHeaderBytes,
		}, needInject)
	case kGather, kScan, kSort:
		// The subtree's entries, complete now that every child reported.
		n.sendTree(in, parent, colMsg{
			ph:      phaseUp,
			fromRel: in.relRank,
			data:    in.slots,
			bytes:   msgHeaderBytes + len(in.slots)*in.elemBytes,
		}, in.key.kd == kGather)
	}
	n.checkLocalData(in)
}

// rootUpComplete runs on relative rank 0 when all contributions arrived:
// in.slots then holds every team member's entry, by relative rank.
func (n *node) rootUpComplete(in *inst) {
	size, root := in.t.Size(), in.key.root
	switch in.key.kd {
	case kBarrier:
		n.forwardDown(in)
	case kReduce:
		// The partial becomes the result, and the record keeps no alias;
		// a synchronous caller takes it from the record (Reduce).
		if !in.syncHeld {
			in.h.vec, in.h.isVec = in.vec, true
			in.vec = nil
		}
	case kAllreduce:
		if !in.syncHeld {
			in.h.vec, in.h.isVec = append([]int64(nil), in.vec...), true
		}
		in.down = append(in.down[:0], in.vec...)
		in.haveData = true
		n.forwardDown(in)
	case kGather:
		out := make([]any, size)
		for rel, v := range in.slots {
			out[absOf(rel, root, size)] = v
		}
		in.h.result = out
	case kScan:
		// Inclusive prefix in team-rank order.
		bundle := make([]any, size)
		var acc []int64
		for tr := 0; tr < size; tr++ {
			rel := relOf(tr, root, size)
			v := in.slots[rel].([]int64)
			if acc == nil {
				acc = append([]int64(nil), v...)
			} else {
				in.op.combine(acc, v)
			}
			bundle[rel] = append([]int64(nil), acc...)
		}
		in.h.result = bundle[0]
		n.forwardBundles(in, bundle)
	case kSort:
		// Concatenate, sort, and hand back blocks matching each image's
		// original contribution size, in team-rank order.
		var all []int64
		for tr := 0; tr < size; tr++ {
			all = append(all, in.slots[relOf(tr, root, size)].([]int64)...)
		}
		slices.Sort(all)
		bundle := make([]any, size)
		off := 0
		for tr := 0; tr < size; tr++ {
			rel := relOf(tr, root, size)
			cnt := len(in.slots[rel].([]int64))
			bundle[rel] = append([]int64(nil), all[off:off+cnt]...)
			off += cnt
		}
		in.h.result = bundle[0]
		n.forwardBundles(in, bundle)
	}
	n.checkLocalData(in)
	n.maybeFinish(in)
}

// forwardDown pushes the down-phase payload (barrier pulse, broadcast
// data, or allreduce result) to this node's children.
func (n *node) forwardDown(in *inst) {
	size := in.t.Size()
	for c := n.firstChild(in.relRank, size); c >= 0; c = n.nextChild(in.relRank, c, size) {
		dst := absOf(c, in.key.root, size)
		m := colMsg{ph: phaseDown, bytes: msgHeaderBytes}
		switch in.key.kd {
		case kBcast:
			m.data = in.dataIn
			m.bytes += in.elemBytes
		case kAllreduce:
			m.vec = in.down
			m.bytes += 8 * len(m.vec)
		}
		needInject := in.key.kd == kBcast && in.relRank == 0
		n.sendTree(in, dst, m, needInject)
	}
	in.downDone = true
}

// forwardBundles routes per-rank payloads down the tree. bundle holds
// this node's subtree by relative rank (bundle[0] is the node's own
// entry); each child receives the sub-slice that is its own subtree.
func (n *node) forwardBundles(in *inst, bundle []any) {
	size := in.t.Size()
	for c := n.firstChild(in.relRank, size); c >= 0; c = n.nextChild(in.relRank, c, size) {
		lo := c - in.relRank
		sub := bundle[lo : lo+n.spanOf(c, size)]
		dst := absOf(c, in.key.root, size)
		needInject := in.relRank == 0 && in.key.kd == kScatter
		n.sendTree(in, dst, colMsg{
			ph:    phaseDown,
			data:  sub,
			bytes: msgHeaderBytes + len(sub)*in.elemBytes,
		}, needInject)
	}
	in.downDone = true
}

// advanceDown processes a down-phase arrival.
func (n *node) advanceDown(in *inst) {
	switch in.key.kd {
	case kBarrier:
		n.forwardDown(in)
	case kBcast:
		if in.started {
			in.h.result = in.dataIn
		}
		n.forwardDown(in)
	case kAllreduce:
		if in.started && !in.syncHeld {
			in.h.vec, in.h.isVec = append([]int64(nil), in.down...), true
		}
		n.forwardDown(in)
	case kScatter, kScan, kSort:
		bundle := in.dataIn.([]any)
		if in.started {
			in.h.result = bundle[0]
		}
		n.forwardBundles(in, bundle)
	}
	n.checkLocalData(in)
	n.maybeFinish(in)
}

// tryFinishDirect checks alltoall completion (all receipts present).
func (n *node) tryFinishDirect(in *inst) {
	if !in.started || in.direct > 0 {
		return
	}
	n.checkLocalData(in)
	n.maybeFinish(in)
}

// checkLocalData fires the handle's local-data completion when the
// per-kind condition holds (paper Fig. 4 semantics).
func (n *node) checkLocalData(in *inst) {
	if !in.started || in.h == nil || in.h.localData {
		return
	}
	ready := false
	switch in.key.kd {
	case kBarrier:
		// Down pulse observed (root: up phase complete).
		ready = in.downDone
	case kBcast:
		if in.relRank == 0 {
			ready = in.downDone && in.injPending == 0
		} else {
			ready = in.haveData
		}
	case kReduce:
		if in.relRank == 0 {
			ready = in.upSent // reduction complete at root
		} else {
			ready = in.upSent && in.injPending == 0
		}
	case kAllreduce:
		ready = in.haveData // the reduced vector is here
	case kGather:
		if in.relRank == 0 {
			ready = in.h.result != nil
		} else {
			ready = in.upSent && in.injPending == 0
		}
	case kScatter:
		if in.relRank == 0 {
			ready = in.downDone && in.injPending == 0
		} else {
			ready = in.haveData
		}
	case kAlltoall:
		ready = in.direct == 0 && in.injPending == 0
		if ready {
			in.h.result = in.slots
		}
	case kScan, kSort:
		ready = in.h.result != nil
	}
	if ready {
		in.h.fireLocalData()
	}
}

// ---------------------------------------------------------------------
// Public API — asynchronous variants. Each runs on the caller's Handle
// h, whose observer the caller sets first.
// ---------------------------------------------------------------------

// BarrierAsync begins a split-phase barrier over t.
func (c *Comm) BarrierAsync(h *Handle, img *rt.ImageKernel, t *team.Team, finish int64) {
	c.start(h, img, t, kBarrier, 0, Sum, nil, nil, 0, finish)
}

// BroadcastAsync begins an asynchronous broadcast of val (bytes wide)
// from team rank root.
func (c *Comm) BroadcastAsync(h *Handle, img *rt.ImageKernel, t *team.Team, root int, val any, bytes int, finish int64) {
	c.start(h, img, t, kBcast, root, Sum, nil, val, bytes, finish)
}

// ReduceAsync begins an asynchronous reduction of vec to team rank root.
func (c *Comm) ReduceAsync(h *Handle, img *rt.ImageKernel, t *team.Team, root int, op Op, vec []int64, finish int64) {
	c.start(h, img, t, kReduce, root, op, vec, nil, 0, finish)
}

// AllreduceAsync begins an asynchronous all-reduce of vec.
func (c *Comm) AllreduceAsync(h *Handle, img *rt.ImageKernel, t *team.Team, op Op, vec []int64, finish int64) {
	c.start(h, img, t, kAllreduce, 0, op, vec, nil, 0, finish)
}

// GatherAsync begins an asynchronous gather of val (bytes wide) to root.
func (c *Comm) GatherAsync(h *Handle, img *rt.ImageKernel, t *team.Team, root int, val any, bytes int, finish int64) {
	c.start(h, img, t, kGather, root, Sum, nil, val, bytes, finish)
}

// ScatterAsync begins an asynchronous scatter. On the root, vals holds one
// value per team rank (each bytes wide); elsewhere vals is ignored.
func (c *Comm) ScatterAsync(h *Handle, img *rt.ImageKernel, t *team.Team, root int, vals []any, bytes int, finish int64) {
	var data any
	if t.MustRank(img.Rank()) == root {
		data = vals
	}
	c.start(h, img, t, kScatter, root, Sum, nil, data, bytes, finish)
}

// AlltoallAsync begins an asynchronous all-to-all exchange; vals holds one
// value per team rank.
func (c *Comm) AlltoallAsync(h *Handle, img *rt.ImageKernel, t *team.Team, vals []any, bytes int, finish int64) {
	anyVals := make([]any, len(vals))
	copy(anyVals, vals)
	c.start(h, img, t, kAlltoall, 0, Sum, nil, anyVals, bytes, finish)
}

// ScanAsync begins an asynchronous inclusive prefix reduction in
// team-rank order.
func (c *Comm) ScanAsync(h *Handle, img *rt.ImageKernel, t *team.Team, op Op, vec []int64, finish int64) {
	c.start(h, img, t, kScan, 0, op, vec, nil, 8*len(vec), finish)
}

// SortAsync begins an asynchronous parallel sort: the concatenation of all
// images' keys is sorted and redistributed so team rank order yields a
// globally sorted sequence, with each image keeping its original count.
func (c *Comm) SortAsync(h *Handle, img *rt.ImageKernel, t *team.Team, keys []int64, finish int64) {
	c.start(h, img, t, kSort, 0, Sum, keys, nil, 8*max(1, len(keys)), finish)
}

// ---------------------------------------------------------------------
// Public API — synchronous variants (block proc p until local data
// completion, which for rooted ops means "this image's role produced its
// value"; see package doc).
// ---------------------------------------------------------------------

// Barrier blocks until every member of t has entered the barrier.
func (c *Comm) Barrier(p *sim.Proc, img *rt.ImageKernel, t *team.Team) {
	in := c.start(nil, img, t, kBarrier, 0, Sum, nil, nil, 0, 0)
	in.own.WaitLocalData(p)
	c.doneWith(in)
}

// Broadcast distributes val (bytes wide) from team rank root and returns
// the received value.
func (c *Comm) Broadcast(p *sim.Proc, img *rt.ImageKernel, t *team.Team, root int, val any, bytes int) any {
	in := c.start(nil, img, t, kBcast, root, Sum, nil, val, bytes, 0)
	in.own.WaitLocalData(p)
	out := in.own.result
	c.doneWith(in)
	return out
}

// Reduce folds vec across t; the result is returned at the root, nil
// elsewhere.
func (c *Comm) Reduce(p *sim.Proc, img *rt.ImageKernel, t *team.Team, root int, op Op, vec []int64) []int64 {
	in := c.start(nil, img, t, kReduce, root, op, vec, nil, 0, 0)
	in.own.WaitLocalData(p)
	var out []int64
	if in.relRank == 0 {
		out, in.vec = in.vec, nil
	}
	c.doneWith(in)
	return out
}

// Allreduce folds vec across t and returns the result on every member.
func (c *Comm) Allreduce(p *sim.Proc, img *rt.ImageKernel, t *team.Team, op Op, vec []int64) []int64 {
	in := c.start(nil, img, t, kAllreduce, 0, op, vec, nil, 0, 0)
	in.own.WaitLocalData(p)
	out := append([]int64(nil), in.down...)
	c.doneWith(in)
	return out
}

// Held is an allreduce on the recycled record a blocking Allreduce waits
// on, for a caller that waits for it in events rather than on a parked
// proc (the finish plane's detection rounds).
type Held struct{ in *inst }

// StartAllreduce begins a Held allreduce of vec over t, with w unparked
// at its completions as a blocking Allreduce's proc would be.
func (c *Comm) StartAllreduce(img *rt.ImageKernel, t *team.Team, op Op, vec []int64, w *sim.Proc) Held {
	in := c.start(nil, img, t, kAllreduce, 0, op, vec, nil, 0, 0)
	in.own.addWaiter(w)
	return Held{in}
}

// Result is the reduced vector once local data completion has brought it
// (ok), valid until Release gives the record back.
func (r Held) Result() (vec []int64, ok bool) { return r.in.down, r.in.own.localData }
func (r Held) Release()                       { r.in.n.c.doneWith(r.in) }

// Gather collects each member's val at root, returning the team-rank
// ordered slice there and nil elsewhere.
func (c *Comm) Gather(p *sim.Proc, img *rt.ImageKernel, t *team.Team, root int, val any, bytes int) []any {
	in := c.start(nil, img, t, kGather, root, Sum, nil, val, bytes, 0)
	in.own.WaitLocalData(p)
	out, _ := in.own.result.([]any)
	c.doneWith(in)
	return out
}

// Scatter distributes vals from root; every member returns its element.
func (c *Comm) Scatter(p *sim.Proc, img *rt.ImageKernel, t *team.Team, root int, vals []any, bytes int) any {
	var data any
	if t.MustRank(img.Rank()) == root {
		data = vals
	}
	in := c.start(nil, img, t, kScatter, root, Sum, nil, data, bytes, 0)
	in.own.WaitLocalData(p)
	out := in.own.result
	c.doneWith(in)
	return out
}

// Alltoall exchanges vals pairwise; entry i of the result came from team
// rank i.
func (c *Comm) Alltoall(p *sim.Proc, img *rt.ImageKernel, t *team.Team, vals []any, bytes int) []any {
	anyVals := make([]any, len(vals))
	copy(anyVals, vals)
	in := c.start(nil, img, t, kAlltoall, 0, Sum, nil, anyVals, bytes, 0)
	in.own.WaitLocalData(p)
	out := in.own.result.([]any)
	c.doneWith(in)
	return out
}

// Scan returns the inclusive prefix reduction of vec in team-rank order.
func (c *Comm) Scan(p *sim.Proc, img *rt.ImageKernel, t *team.Team, op Op, vec []int64) []int64 {
	in := c.start(nil, img, t, kScan, 0, op, vec, nil, 8*len(vec), 0)
	in.own.WaitLocalData(p)
	out := in.own.result.([]int64)
	c.doneWith(in)
	return out
}

// Sort globally sorts the members' keys (see SortAsync).
func (c *Comm) Sort(p *sim.Proc, img *rt.ImageKernel, t *team.Team, keys []int64) []int64 {
	in := c.start(nil, img, t, kSort, 0, Sum, keys, nil, 8*max(1, len(keys)), 0)
	in.own.WaitLocalData(p)
	out := in.own.result.([]int64)
	c.doneWith(in)
	return out
}
