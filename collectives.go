package caf

import (
	"fmt"

	"caf2go/internal/collect"
	"caf2go/internal/core"
	"caf2go/internal/race"
	"caf2go/internal/team"
	"caf2go/internal/trace"
)

// ReduceOp re-exports the reduction operator type.
type ReduceOp = collect.Op

// Reduction operators.
const (
	Sum  = collect.Sum
	Prod = collect.Prod
	Min  = collect.Min
	Max  = collect.Max
	BAnd = collect.BAnd
	BOr  = collect.BOr
	BXor = collect.BXor
)

// collRole is what one image's part in a collective is to cofence and to
// the race detector.
type collRole struct {
	// class is how the part touches the image's local data: the class an
	// implicit collective registers with cofence (0, a barrier's, is not
	// registered).
	class core.OpClass
	// rel: the image contributes its clock to the instance at initiation.
	// acq: it joins the instance's accumulation at its completion points,
	// ordered after every contributor.
	rel, acq bool
}

// The five roles a collective's part can play.
var (
	roleFence       = collRole{0, true, true}                            // a barrier member
	roleReadWrite   = collRole{core.OpReads | core.OpWrites, true, true} // every member of a symmetric collective; a reduce or gather root
	roleSource      = collRole{core.OpReads, true, true}                 // a broadcast or scatter root
	roleReceiver    = collRole{core.OpWrites, false, true}               // a broadcast or scatter receiver: ordered after the root
	roleContributor = collRole{core.OpReads, true, false}                // a reduce or gather contributor: goes on
)

// collKind is one of the nine collectives, as both its asynchronous and
// its blocking call see it: its lifecycle kind, and the role of its root
// and of the other members (the same for a rootless collective).
type collKind struct {
	name         string
	root, member collRole
}

var (
	collBarrier   = &collKind{"coll:barrier", roleFence, roleFence}
	collBroadcast = &collKind{"coll:broadcast", roleSource, roleReceiver}
	collReduce    = &collKind{"coll:reduce", roleReadWrite, roleContributor}
	collAllreduce = &collKind{"coll:allreduce", roleReadWrite, roleReadWrite}
	collGather    = &collKind{"coll:gather", roleReadWrite, roleContributor}
	collScatter   = &collKind{"coll:scatter", roleSource, roleReceiver}
	collAlltoall  = &collKind{"coll:alltoall", roleReadWrite, roleReadWrite}
	collScan      = &collKind{"coll:scan", roleReadWrite, roleReadWrite}
	collSort      = &collKind{"coll:sort", roleReadWrite, roleReadWrite}
)

// roleIn returns the role of the image's part in collective k over t,
// rooted at team rank root.
func (img *Image) roleIn(k *collKind, t *Team, root int) collRole {
	if k.root != k.member && t.MustRank(img.Rank()) == root {
		return k.root
	}
	return k.member
}

// Collective is the handle of one asynchronous collective on one image.
// It is the operation's one record (DESIGN §4.14): its completion handle,
// its collect.Handle and its cofence registration are fields, and
// collect tells it of each completion level.
type Collective struct {
	img  *Image
	op   Op             // completion handle (continuation registration)
	h    collect.Handle // collect's side of the collective
	pend core.PendingOp // an implicit collective's cofence registration

	collOpts
	role    collRole
	started bool      // collect has started it: a level's effects may run
	race    *collRace // the race detector's state; nil with it off
}

// collRace is an asynchronous collective's race-detector state: the
// per-instance sync clock, and the notifier's own clock an explicit
// collective's events carry when its role does not release into the
// instance.
type collRace struct {
	cs      *collSync
	selfClk race.Clock
}

// Op returns the collective's completion handle for continuation
// registration: local data fires when this image's buffers are usable,
// local and global completion together when all pair-wise communication
// involving this image is done (Fig. 4). Continuations observing the
// result should be registered via a PollSet (or call raceAcquire-free
// Result() only after LocalDataDone) — direct callbacks run in engine
// context and do not install the race detector's acquire edge.
func (c *Collective) Op() *Op { return &c.op }

// CollOpt configures an asynchronous collective.
type CollOpt func(*collOpts)

type collOpts struct {
	dataE *Event // srcE in the paper's signature: local data completion
	opE   *Event // localE: local operation completion
}

// implicit reports whether no event completes the collective: cofence
// and finish cover it.
func (o *collOpts) implicit() bool { return o.dataE == nil && o.opE == nil }

// DataEvent requests notification of e at local data completion (the
// srcE parameter of team_broadcast_async, §II-C3). Supplying any event
// makes the collective explicitly synchronized (invisible to cofence and
// finish).
func DataEvent(e *Event) CollOpt { return func(o *collOpts) { o.dataE = e } }

// OpEvent requests notification of e at local operation completion (the
// localE parameter of team_broadcast_async).
func OpEvent(e *Event) CollOpt { return func(o *collOpts) { o.opE = e } }

// WaitLocalData blocks until the image's buffers are usable: inputs may
// be overwritten, outputs read (Fig. 4).
func (c *Collective) WaitLocalData() {
	p := c.img.parker("Collective.WaitLocalData")
	btok := c.img.beginBlock("collective")
	c.h.WaitLocalData(p)
	c.img.endBlock(btok)
	c.raceAcquire()
}

// WaitLocalOp blocks until all pair-wise communication involving this
// image is complete.
func (c *Collective) WaitLocalOp() {
	p := c.img.parker("Collective.WaitLocalOp")
	btok := c.img.beginBlock("collective")
	c.h.WaitLocalOp(p)
	c.img.endBlock(btok)
	c.raceAcquire()
}

// LocalDataDone reports local data completion without blocking. Observing
// completion is an acquire point: the caller may read the result next.
func (c *Collective) LocalDataDone() bool {
	if c.h.LocalDataDone() {
		c.raceAcquire()
		return true
	}
	return false
}

// LocalOpDone reports local operation completion without blocking.
func (c *Collective) LocalOpDone() bool {
	if c.h.LocalOpDone() {
		c.raceAcquire()
		return true
	}
	return false
}

// raceAcquire joins the collective's accumulated release clock when this
// image's role is ordered after other participants.
func (c *Collective) raceAcquire() {
	if c.race != nil && c.role.acq {
		c.img.raceAcquire(c.race.cs.clk)
	}
}

// Result returns the operation's local result (see the individual
// constructors); valid once LocalDataDone.
func (c *Collective) Result() any { return c.h.Result() }

// collective makes the record of an asynchronous collective k over t,
// rooted at team rank root, and does what comes before collect starts
// it: the op's initiation stamp and the race detector's role-filtered
// release (a releasing image contributes its clock to the instance). It
// returns the record, the resolved team and the finish block that
// tracks the collective.
func (img *Image) collective(k *collKind, t *Team, root int, opts []CollOpt) (*Collective, *Team, int64) {
	t = img.resolveTeam(t)
	c := &Collective{img: img}
	for _, opt := range opts {
		opt(&c.collOpts)
	}
	implicit := c.implicit()
	c.role = img.roleIn(k, t, root)
	finish := img.collFinish(t, implicit)
	// Lifecycle: a collective has no single peer; its local-op completion
	// is also its global completion from this image's perspective (all
	// pair-wise communication involving this image is done, Fig. 4).
	img.opInit(&c.op, k.name, -1)
	img.opStage(&c.op, trace.StageInit)
	if rc := img.raceCtx(); rc != nil {
		rs := img.m.race
		r := &collRace{cs: rs.collInstance(img.Rank(), t)}
		c.race = r
		if c.role.rel {
			rc.ReleaseInto(&r.cs.clk)
		} else if !implicit {
			// Events still release the notifier's own clock to waiters.
			r.selfClk = img.raceRelease()
		}
		if finish != 0 {
			// The enclosing finish's exit is ordered after the whole
			// instance; dereferenced there, once fully accumulated.
			fs := rs.finishSyncFor(finish)
			fs.refs = append(fs.refs, &r.cs.clk)
		}
	}
	c.h.Observe((*collLevels)(c))
	return c, t, finish
}

// initiated completes the record once collect has started the
// collective: an implicit one that touches local data registers with
// cofence (an acquiring role's local data completion is also the
// detector's cofence edge), and a level that completed inside the start
// has its effects run now, in level order.
func (c *Collective) initiated() *Collective {
	img := c.img
	if c.implicit() && c.role.class != 0 {
		img.ct.RegisterOp(&c.pend, c.role.class, (*collLevels)(c))
		if c.race != nil && c.role.acq {
			img.rare.raceOps = append(img.rare.raceOps, raceOp{op: &c.pend, class: c.role.class, clkRef: &c.race.cs.clk})
		}
	}
	c.started = true
	if c.h.LocalDataDone() {
		c.localDataReached()
	}
	if c.h.LocalOpDone() {
		c.notify(c.opE)
	}
	return c
}

// localDataReached is local data completion's effect: an implicit
// collective's cofence registration completes, an explicit one notifies
// its DataEvent.
func (c *Collective) localDataReached() {
	if c.pend.Class() != 0 {
		c.pend.CompleteLocalData()
	}
	c.notify(c.dataE)
}

// notify posts e, if the collective was given it, with the release clock
// of the instance's accumulation plus the notifier's own clock.
func (c *Collective) notify(e *Event) {
	if e == nil {
		return
	}
	var clk race.Clock
	if r := c.race; r != nil {
		clk = race.Join(race.CopyClock(r.cs.clk), r.selfClk)
	}
	c.img.m.notifyFrom(c.img.Rank(), e, clk)
}

// collLevels is a Collective as what collect tells of its completion
// levels and what cofence initiates; the conversion allocates nothing.
// Each level is stamped on the op when collect reaches it, and its
// effects run then too once the collective has started.
type collLevels Collective

func (l *collLevels) LocalData() {
	c := (*Collective)(l)
	c.img.opStage(&c.op, trace.StageLocalData)
	if c.started {
		c.localDataReached()
	}
}

func (l *collLevels) LocalOp() {
	c := (*Collective)(l)
	// Local-op completion implies the buffers are usable (Fig. 4), but the
	// collective engine does not structurally guarantee that local data
	// was reached first on every algorithm path; stamp it defensively (the
	// first stamp wins).
	c.img.opStage(&c.op, trace.StageLocalData)
	c.img.opStage(&c.op, trace.StageLocalOp)
	c.img.opStage(&c.op, trace.StageGlobal)
	if c.started {
		c.notify(c.opE)
	}
}

// Initiate is the cofence registration's initiation: the collective
// started before it registered, so there is nothing left to start.
func (*collLevels) Initiate() {}

// collFinish is the finish block a collective is tracked in (0 for none):
// implicit collectives are covered by the enclosing finish, whose team
// must contain the collective's team (§III-A1).
func (img *Image) collFinish(t *Team, implicit bool) int64 {
	// Every asynchronous collective comes through here before it starts.
	// Its handle keeps the Image, to wait on and to acquire through.
	img.parker("asynchronous collective")
	if !implicit {
		return 0
	}
	if len(img.finishes()) > 0 {
		if !t.SubsetOf(img.finishTeam()) {
			panic("caf: asynchronous collective's team must be a subset of the enclosing finish's team")
		}
	}
	return img.trackID()
}

// finishTeam returns the innermost finish block's team.
func (img *Image) finishTeam() *Team {
	fs := img.finishes()
	return fs[len(fs)-1].Team()
}

func (img *Image) resolveTeam(t *Team) *Team {
	if t == nil {
		return img.m.world
	}
	return t
}

// BarrierAsync begins a split-phase barrier over t.
func (img *Image) BarrierAsync(t *Team, opts ...CollOpt) *Collective {
	c, t, finish := img.collective(collBarrier, t, 0, opts)
	img.m.comm.BarrierAsync(&c.h, img.st.kern, t, finish)
	return c.initiated()
}

// BroadcastAsync begins an asynchronous broadcast of val (bytes wide)
// from team rank root; Result returns the received value everywhere.
func (img *Image) BroadcastAsync(t *Team, root int, val any, bytes int, opts ...CollOpt) *Collective {
	c, t, finish := img.collective(collBroadcast, t, root, opts)
	img.m.comm.BroadcastAsync(&c.h, img.st.kern, t, root, val, bytes, finish)
	return c.initiated()
}

// ReduceAsync begins an asynchronous reduction of vec to team rank root.
func (img *Image) ReduceAsync(t *Team, root int, op ReduceOp, vec []int64, opts ...CollOpt) *Collective {
	c, t, finish := img.collective(collReduce, t, root, opts)
	img.m.comm.ReduceAsync(&c.h, img.st.kern, t, root, op, vec, finish)
	return c.initiated()
}

// AllreduceAsync begins an asynchronous all-reduce of vec.
func (img *Image) AllreduceAsync(t *Team, op ReduceOp, vec []int64, opts ...CollOpt) *Collective {
	c, t, finish := img.collective(collAllreduce, t, 0, opts)
	img.m.comm.AllreduceAsync(&c.h, img.st.kern, t, op, vec, finish)
	return c.initiated()
}

// GatherAsync begins an asynchronous gather of val (bytes wide) to root.
func (img *Image) GatherAsync(t *Team, root int, val any, bytes int, opts ...CollOpt) *Collective {
	c, t, finish := img.collective(collGather, t, root, opts)
	img.m.comm.GatherAsync(&c.h, img.st.kern, t, root, val, bytes, finish)
	return c.initiated()
}

// ScatterAsync begins an asynchronous scatter of vals (one per team rank,
// significant at the root).
func (img *Image) ScatterAsync(t *Team, root int, vals []any, bytes int, opts ...CollOpt) *Collective {
	c, t, finish := img.collective(collScatter, t, root, opts)
	img.m.comm.ScatterAsync(&c.h, img.st.kern, t, root, vals, bytes, finish)
	return c.initiated()
}

// AlltoallAsync begins an asynchronous all-to-all of vals (one per rank).
func (img *Image) AlltoallAsync(t *Team, vals []any, bytes int, opts ...CollOpt) *Collective {
	c, t, finish := img.collective(collAlltoall, t, 0, opts)
	img.m.comm.AlltoallAsync(&c.h, img.st.kern, t, vals, bytes, finish)
	return c.initiated()
}

// ScanAsync begins an asynchronous inclusive prefix reduction in
// team-rank order.
func (img *Image) ScanAsync(t *Team, op ReduceOp, vec []int64, opts ...CollOpt) *Collective {
	c, t, finish := img.collective(collScan, t, 0, opts)
	img.m.comm.ScanAsync(&c.h, img.st.kern, t, op, vec, finish)
	return c.initiated()
}

// SortAsync begins an asynchronous global sort of keys (each image keeps
// its original count; team-rank order yields the sorted sequence).
func (img *Image) SortAsync(t *Team, keys []int64, opts ...CollOpt) *Collective {
	c, t, finish := img.collective(collSort, t, 0, opts)
	img.m.comm.SortAsync(&c.h, img.st.kern, t, keys, finish)
	return c.initiated()
}

// ---------------------------------------------------------------------
// Synchronous conveniences (block until local data completion).
// ---------------------------------------------------------------------

// Barrier blocks until every member of t entered the barrier. It
// replaces Fortran 2008's SYNC ALL (§V). A barrier is a full
// release/acquire fence: every member is ordered after every other
// member's pre-barrier activity.
func (img *Image) Barrier(t *Team) {
	p := img.parker("Barrier")
	t = img.resolveTeam(t)
	b := img.collBegin(collBarrier, t, 0)
	img.m.comm.Barrier(p, img.st.kern, t)
	img.blockEnd(b)
}

// Broadcast distributes val (bytes wide) from team rank root.
func (img *Image) Broadcast(t *Team, root int, val any, bytes int) any {
	p := img.parker("Broadcast")
	t = img.resolveTeam(t)
	b := img.collBegin(collBroadcast, t, root)
	out := img.m.comm.Broadcast(p, img.st.kern, t, root, val, bytes)
	img.blockEnd(b)
	return out
}

// Reduce folds vec to the root (result nil elsewhere).
func (img *Image) Reduce(t *Team, root int, op ReduceOp, vec []int64) []int64 {
	p := img.parker("Reduce")
	t = img.resolveTeam(t)
	b := img.collBegin(collReduce, t, root)
	out := img.m.comm.Reduce(p, img.st.kern, t, root, op, vec)
	img.blockEnd(b)
	return out
}

// Allreduce folds vec across t, returning the result everywhere.
func (img *Image) Allreduce(t *Team, op ReduceOp, vec []int64) []int64 {
	p := img.parker("Allreduce")
	t = img.resolveTeam(t)
	b := img.collBegin(collAllreduce, t, 0)
	out := img.m.comm.Allreduce(p, img.st.kern, t, op, vec)
	img.blockEnd(b)
	return out
}

// Gather collects each member's val at the root.
func (img *Image) Gather(t *Team, root int, val any, bytes int) []any {
	p := img.parker("Gather")
	t = img.resolveTeam(t)
	b := img.collBegin(collGather, t, root)
	out := img.m.comm.Gather(p, img.st.kern, t, root, val, bytes)
	img.blockEnd(b)
	return out
}

// Scatter distributes vals (one per team rank) from the root.
func (img *Image) Scatter(t *Team, root int, vals []any, bytes int) any {
	p := img.parker("Scatter")
	t = img.resolveTeam(t)
	b := img.collBegin(collScatter, t, root)
	out := img.m.comm.Scatter(p, img.st.kern, t, root, vals, bytes)
	img.blockEnd(b)
	return out
}

// Alltoall exchanges vals pairwise.
func (img *Image) Alltoall(t *Team, vals []any, bytes int) []any {
	p := img.parker("Alltoall")
	t = img.resolveTeam(t)
	b := img.collBegin(collAlltoall, t, 0)
	out := img.m.comm.Alltoall(p, img.st.kern, t, vals, bytes)
	img.blockEnd(b)
	return out
}

// Scan returns the inclusive prefix reduction in team-rank order.
func (img *Image) Scan(t *Team, op ReduceOp, vec []int64) []int64 {
	p := img.parker("Scan")
	t = img.resolveTeam(t)
	b := img.collBegin(collScan, t, 0)
	out := img.m.comm.Scan(p, img.st.kern, t, op, vec)
	img.blockEnd(b)
	return out
}

// SortKeys globally sorts the members' keys.
func (img *Image) SortKeys(t *Team, keys []int64) []int64 {
	p := img.parker("SortKeys")
	t = img.resolveTeam(t)
	b := img.collBegin(collSort, t, 0)
	out := img.m.comm.Sort(p, img.st.kern, t, keys)
	img.blockEnd(b)
	return out
}

// TeamSplit collectively partitions parent (nil = team_world): images
// passing equal colors form a new team, ordered by key then world rank
// (§II-A). Every member of parent must call it; the new team containing
// the caller is returned.
func (img *Image) TeamSplit(parent *Team, color, key int) *Team {
	parent = img.resolveTeam(parent)
	spec := team.SplitSpec{World: img.Rank(), Color: color, Key: key}
	// Route through the bracketed collectives so a split also installs
	// its happens-before edges (a split is a synchronization point).
	gathered := img.Gather(parent, 0, spec, 24)
	var result map[int]*Team
	if parent.MustRank(img.Rank()) == 0 {
		specs := make([]team.SplitSpec, len(gathered))
		colors := make(map[int]bool)
		for i, g := range gathered {
			specs[i] = g.(team.SplitSpec)
			colors[specs[i].Color] = true
		}
		base := img.m.reserveTeamIDs(len(colors))
		var err error
		result, err = team.Split(parent, specs, base)
		if err != nil {
			// Every member of a live parent team contributed exactly one
			// spec via the gather above, so a typed split error here is a
			// runtime invariant violation, not a user mistake.
			panic(fmt.Sprintf("caf: team split failed: %v", err))
		}
	}
	shared := img.Broadcast(parent, 0, result, 16*parent.Size()).(map[int]*Team)
	return shared[color]
}

// reserveTeamIDs hands out a contiguous block of globally unique team ids.
func (m *Machine) reserveTeamIDs(n int) int64 {
	base := m.nextSplit + 1
	m.nextSplit += int64(n)
	return base
}
