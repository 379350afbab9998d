package caf

import (
	"fmt"

	"caf2go/internal/core"
	"caf2go/internal/race"
)

// Happens-before race detection: with Config.Races set, every
// execution context (each image's SPMD main and every shipped function)
// and every asynchronous operation carries a vector-clock component
// (internal/race), and the synchronization constructs install
// release/acquire edges:
//
//   - EventNotify releases the notifier's clock (plus the clocks of the
//     remote updates the notify waits on) into the event; EventWait /
//     EventTryWait and predicate consumption acquire it. An event's clock
//     accumulates over notifies — the counting-semaphore approximation:
//     a waiter acquires all prior notifies, not just the one it consumed,
//     which can only hide races, never invent them.
//   - Lock transfers the releaser's clock to the next holder.
//   - Finish joins every member's end-of-body clock and the clocks of all
//     implicitly-completed operations initiated inside the block; each
//     member acquires the join when detection signals termination.
//   - Cofence acquires the local-data-completion clocks of the implicit
//     operations the fence's DOWNWARD filter does not let pass.
//   - Spawn forks the child's clock from the spawner's at initiation; an
//     implicit spawn releases its final clock into the enclosing finish,
//     an explicit one into its completion event.
//   - Collectives release participants' clocks into a per-instance sync
//     object and acquire it role-filtered (a broadcast orders receivers
//     after the root, a reduction orders the root after contributors).
//   - When the fabric delivers each (src,dst) channel in order
//     (FabricConfig.Ordered: FIFO, the default, and no fault plan), each
//     channel carries a clock so successive deliveries on the same
//     channel are ordered — e.g. two back-to-back CopyAsyncs from one
//     image into the same remote range are not a race, matching what the
//     ordered conduit guarantees. A faulty fabric reorders, so it gets no
//     channel clocks.
//
// Every edge the runtime installs corresponds to an ordering the memory
// model actually promises. The conservative direction is the other one:
// an operation that merely completed early (without a synchronizing
// construct observing it) must NOT be acquired, or the detector would
// miss every race the fabric happened to serialize in time.
//
// Only runtime-mediated accesses are visible: direct Coarray.Local slice
// access is the image's own memory (the DRF0 side of the memory model)
// and is not tracked, so function-shipped read-modify-writes, which run
// atomically on the owner, never report.

// raceState is the machine-wide detector state.
type raceState struct {
	d    *race.Detector
	fifo bool

	// chans holds one clock per (src, dst) fabric channel.
	chans map[[2]int]race.Clock

	// finish holds per-finish-block sync objects, keyed by the globally
	// consistent finish id.
	finish map[int64]*finishSync

	// colls holds per-collective-instance sync objects; collSeq counts
	// instances per (image, team) so SPMD program order matches them
	// (the carrSeq idiom).
	colls   map[collKey]*collSync
	collSeq map[collSeqKey]uint64
}

// finishSync accumulates the clocks a finish block's exit acquires.
type finishSync struct {
	// ops joins the clocks of implicitly-completed asynchronous
	// operations initiated inside the block (joined eagerly at
	// initiation: the exit cannot happen before they complete).
	ops race.Clock
	// members joins each member's clock at its end-of-body release.
	members race.Clock
	// refs point at collective sync clocks still accumulating at
	// registration time; dereferenced at exit.
	refs []*race.Clock
}

type collKey struct {
	team int64
	seq  uint64
}

type collSeqKey struct {
	rank int
	team int64
}

// collSync is one collective instance's accumulated release clock.
type collSync struct {
	clk race.Clock
}

func newRaceState(fifo bool) *raceState {
	return &raceState{
		d:       race.NewDetector(),
		fifo:    fifo,
		chans:   make(map[[2]int]race.Clock),
		finish:  make(map[int64]*finishSync),
		colls:   make(map[collKey]*collSync),
		collSeq: make(map[collSeqKey]uint64),
	}
}

func (rs *raceState) finishSyncFor(id int64) *finishSync {
	fs := rs.finish[id]
	if fs == nil {
		fs = &finishSync{}
		rs.finish[id] = fs
	}
	return fs
}

// collInstance returns the sync object of the image's next collective
// instance on team t, matching instances across images by per-team
// program order.
func (rs *raceState) collInstance(rank int, t *Team) *collSync {
	sk := collSeqKey{rank: rank, team: t.ID()}
	rs.collSeq[sk]++
	key := collKey{team: t.ID(), seq: rs.collSeq[sk]}
	cs := rs.colls[key]
	if cs == nil {
		cs = &collSync{}
		rs.colls[key] = cs
	}
	return cs
}

// raceOp tracks one implicitly-completed operation for cofence edges.
// clkRef points at the clock covering the op's local data completion
// (set when the op actually initiates, which relaxed mode may defer).
type raceOp struct {
	op     *core.PendingOp
	class  core.OpClass
	clkRef *race.Clock
}

// ---------------------------------------------------------------------
// Nil-safe helpers: every call site may run with the detector off.
// ---------------------------------------------------------------------

// raceCtx returns the image's context, or nil when detection is off.
func (img *Image) raceCtx() *race.Ctx { return img.rc }

// raceRelease snapshots the context's clock for a release edge and
// advances its epoch (so the released clock does not cover later
// activity). Returns nil when detection is off.
func (img *Image) raceRelease() race.Clock {
	if img.rc == nil {
		return nil
	}
	clk := img.rc.Snapshot()
	img.rc.Tick()
	return clk
}

// raceAcquire joins clk into the image's context.
func (img *Image) raceAcquire(clk race.Clock) {
	if img.rc != nil && clk != nil {
		img.rc.Acquire(clk)
	}
}

// raceChanArrive models one FIFO channel hop: the delivered message's
// clock joins the (from, to) channel clock, and the channel remembers
// the join so later deliveries on the same channel are ordered after it.
// Without FIFO delivery the message clock passes through unchanged.
func (m *Machine) raceChanArrive(from, to int, clk race.Clock) race.Clock {
	rs := m.race
	if rs == nil {
		return nil
	}
	if !rs.fifo {
		return clk
	}
	key := [2]int{from, to}
	eff := race.Join(race.CopyClock(clk), rs.chans[key])
	rs.chans[key] = race.Join(rs.chans[key], eff)
	return eff
}

// raceRecord registers one section access under an explicit (ctx, clock)
// pair — used for asynchronous operations running under op clocks.
func raceRecord[T any](m *Machine, s Sec[T], write bool, ctxID int, clk race.Clock, op string) {
	rs := m.race
	if rs == nil || s.ca == nil || ctxID < 0 {
		return
	}
	rs.d.Access(s.ca, s.rank, s.lo, s.hi, s.step, write, ctxID, clk, op, m.eng.Now())
}

// raceRecordCtx registers a section access by the image's own context —
// the blocking Get/Put case, where the caller is parked until the remote
// access completes, so the access is ordered exactly at its program
// point.
func raceRecordCtx[T any](img *Image, s Sec[T], write bool, op string) {
	if img.rc == nil {
		return
	}
	raceRecord(img.m, s, write, img.rc.ID(), img.rc.Clock(), op)
}

// collBegin opens the bracket of blocking collective k over t, rooted at
// team rank root: the op's initiation, the blocked interval and the
// role-filtered release; blockEnd closes it with the role's acquire.
func (img *Image) collBegin(k *collKind, t *Team, root int) blocked {
	b := img.blockBegin(k.name, "collective", -1)
	rs := img.m.race
	if rs == nil || img.rc == nil {
		return b
	}
	role := img.roleIn(k, t, root)
	cs := rs.collInstance(img.Rank(), t)
	if role.rel {
		img.rc.ReleaseInto(&cs.clk)
	}
	if role.acq {
		b.acq = cs
	}
	return b
}

// ---------------------------------------------------------------------
// Race reporting.
// ---------------------------------------------------------------------

// Conflict is one detected race: two conflicting accesses that no
// synchronization edge orders.
type Conflict struct {
	// Image is the world rank owning the conflicted shard.
	Image int
	// Lo, Hi bound the intersection of the two access windows.
	Lo, Hi int
	// First and Second describe the two access sites (operation names).
	First, Second string
	// Time is the virtual time of detection.
	Time Time
	// Missing describes the absent synchronization edge.
	Missing string
}

// Conflicts reports the number of races the detector observed; 0 with
// Config.Races off.
func (m *Machine) Conflicts() int64 {
	if m.race == nil {
		return 0
	}
	return m.race.d.Count()
}

// ConflictLog returns descriptions of the first few races in
// chronological order. When more were observed than logged, an entry
// summarizes the overflow ("… and N more"). When the detector evicted
// access history at its per-region cap, the last entry says how much:
// races against evicted accesses go unreported, so Conflicts is then a
// lower bound.
func (m *Machine) ConflictLog() []string {
	rs := m.race
	if rs == nil {
		return nil
	}
	var out []string
	for _, r := range rs.d.Races() {
		out = append(out, fmt.Sprintf("race at image %d [%d,%d): %s unordered with %s at t=%v",
			r.Rank, r.Lo, r.Hi, r.Current.Op, r.Prior.Op, r.Detected))
	}
	if n := rs.d.Dropped(); n > 0 {
		out = append(out, fmt.Sprintf("… and %d more", n))
	}
	if n := rs.d.Evicted(); n > 0 {
		out = append(out, fmt.Sprintf("… %d accesses evicted from the shadow history: races with them are not counted", n))
	}
	return out
}

// ConflictDetails returns structured descriptions of the recorded
// races, in chronological order.
func (m *Machine) ConflictDetails() []Conflict {
	if m.race == nil {
		return nil
	}
	var out []Conflict
	for _, r := range m.race.d.Races() {
		out = append(out, Conflict{
			Image: r.Rank, Lo: r.Lo, Hi: r.Hi,
			First: r.Prior.Op, Second: r.Current.Op,
			Time: r.Detected, Missing: r.Missing(),
		})
	}
	return out
}
