// Package core implements the primary contribution of the paper: the
// finish construct's SPMD termination-detection algorithm (Fig. 7) and the
// cofence local-data-completion tracker (§III-B), together with the
// epoch machinery both rely on.
//
// The Plane type implements rt.Tracker: every asynchronous operation
// initiated with implicit completion inside a finish block is sent as a
// tracked message, and the plane maintains the per-image, per-epoch
// counters (sent, delivered, received, completed) that each detection
// round sum-reduces.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"caf2go/internal/collect"
	"caf2go/internal/fabric"
	"caf2go/internal/failure"
	"caf2go/internal/metrics"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/team"
)

// Ref identifies a finish block on the wire: it is rt's tracking context,
// which travels with every tracked message by value. ID is identical on
// every member image (derived from the team id and a per-team sequence
// number); ParityOdd is stamped by the sender's OnSend with the sender's
// present epoch parity, implementing the paper's fromOddEpoch bit. SBox
// (the sender's epoch at send time, the ack's credit target) and the
// receiver's box that OnReceive returns (its epoch at delivery, the
// completion's credit target, kept by rt on the Delivery) bind each
// message's delivery/completion credits to the epoch objects that counted
// its send/receipt — on real hardware these are per-image table lookups
// keyed by (ID, parity, round); carrying pointers is the shared-address-
// space simulation's shortcut for the same thing. The world ranks of the
// two ends, on which the resilient-finish reconciliation keys its
// per-peer charge-off tallies, come from rt with OnComplete and OnAck.
type Ref = rt.Track

// FinishID derives the globally consistent id of the seq-th finish block
// executed on a team. Every image entering its seq-th finish on the same
// team computes the same value — no coordination needed.
func FinishID(t *team.Team, seq uint64) int64 {
	return t.ID()<<32 | int64(seq&0xFFFFFFFF)
}

// epoch holds the four counters of Fig. 7.
type epoch struct {
	sent      int64 // messages this image initiated
	delivered int64 // delivery acks received for its sends
	received  int64 // messages delivered to this image
	completed int64 // received messages whose execution finished
}

func (e *epoch) add(o epoch) {
	e.sent += o.sent
	e.delivered += o.delivered
	e.received += o.received
	e.completed += o.completed
}

// quiescent is the wait_until precondition (Fig. 7 line 4): everything
// this image sent has landed, and everything it received has completed.
func (e *epoch) quiescent() bool {
	return e.sent == e.delivered && e.completed == e.received
}

// epochBox is an epoch with a forwarding pointer. When the odd epoch is
// folded into the even epoch (next_epoch, Fig. 7 lines 16-26), credits
// still in flight for messages counted in the old odd epoch must land in
// the fold target; the forward pointer routes them there.
type epochBox struct {
	epoch
	fwd *epochBox
}

// TrackBox marks an epochBox as what a Ref's SBox and the receiver's box
// (OnReceive) point to.
func (*epochBox) TrackBox() {}

// epochOf returns the epoch a Ref's SBox or a receiver's box names,
// resolved to its fold target.
func epochOf(b rt.TrackBox) *epochBox { return b.(*epochBox).resolve() }

func (b *epochBox) resolve() *epochBox {
	for b.fwd != nil {
		b = b.fwd
	}
	return b
}

// State is one image's view of one finish block, and from End on the
// detection state machine of its image (step).
type State struct {
	id         int64
	even       epochBox  // permanent fold target
	odd        *epochBox // current odd epoch, nil when not in one
	presentOdd bool
	begun      bool
	done       bool
	wait       waitPhase // what the image's main is parked on, if anything
	rank       int32     // the image, set at End

	// Grand totals (all epochs), used by the no-wait four-counter
	// variant and by garbage collection.
	tSent, tDelivered, tReceived, tCompleted int64

	t *team.Team // set at Begin

	// RoundAt records the virtual time each detection round completed
	// (copied into the lifecycle trace's finish record, and read by
	// Machine.FinishRoundTimes). Its first entry is stored in roundAt. A
	// round a declared death cut short is counted in unrecorded instead.
	RoundAt []sim.Time
	roundAt [1]sim.Time

	// waiter is the proc running End, pl its plane, red the round's
	// reduction while one is in flight, and prev the four-counter
	// variant's last snapshot (the balanced total, or -1).
	waiter *sim.Proc
	pl     *Plane
	red    collect.Held
	prev   int64

	// *resilience is made with the state on a plane with a failure
	// detector, or by the first abandoned send (see reconciling); nil, and
	// never touched, otherwise.
	*resilience
}

// reconciling returns the state's resilient-mode record, making it if
// needed.
func (s *State) reconciling() *resilience {
	if s.resilience == nil {
		s.resilience = new(resilience)
	}
	return s.resilience
}

// resilience is one finish state's resilient-mode reconciliation state.
type resilience struct {
	// ackedTo/completedFrom are the per-peer mirror tallies consumed when
	// a peer is declared dead; adjSent and adjCompleted are the virtual
	// counter pairs standing in for the dead image's contribution in the
	// survivor reduction (each adjSent pairs a virtual {sent, delivered},
	// each adjCompleted a virtual {received, completed} — so the Fig. 7
	// local quiescence predicate, which only compares reals, is
	// untouched). lost counts activities charged off on this image.
	ackedTo       map[int]int64
	completedFrom map[int]int64
	adjSent       int64
	adjCompleted  int64
	lost          int64

	// The survivor poll (step's degraded phases): the round in flight,
	// its replies, survivors and the death count it began under, and the
	// last completed round's sums (lastSum, once haveLast).
	pollRound   int
	pollReplies map[int][5]int64
	survivors   []int
	epoch       int
	lastSum     [4]int64
	haveLast    bool

	// unrecorded counts detection rounds begun and never completed.
	unrecorded int

	// ferr is what End returns: the failure a degraded finish observed.
	ferr *failure.ImageFailedError
}

// waitPhase names what an image's main, inside End, is parked on: a
// round's precondition (ready) or its reduction, or, once a death is
// declared, the survivor poll's local drain or a poll round's replies.
// Between two poll rounds it waits in waitNone for its own wake-up.
type waitPhase uint8

const (
	waitNone waitPhase = iota
	waitReady
	waitReduce
	waitDrain
	waitPoll
)

// woken reports whether the main is parked where the plane itself wakes
// it (wake, a declared death, a poll reply). In a reduction, the
// reduction's completion wakes it, and a declared death, which satisfies
// every parked wait (each ORs it into its condition), the machine's
// WakeAllParked, in creation order.
func (s *State) woken() bool { return s.wait != waitNone && s.wait != waitReduce }

// wake unparks the main if what it waits on now holds. A
// wake-up that finds the precondition false would be an event whose whole
// effect is test and wait again: an acknowledgement or a completion that
// leaves others outstanding schedules nothing. A declared death satisfies
// the precondition (the main moves on to the survivor poll), so it is
// tested here as it is in step. In the poll's phases every credit wakes
// the main, whose step re-tests in the wake-up's event.
func (pl *Plane) wake(s *State) {
	if !s.woken() || s.wait == waitReady && !pl.ready(s) && !pl.det.AnyDead() {
		return
	}
	s.waiter.Unpark()
}

func newState(id int64) *State {
	s := &State{id: id}
	s.RoundAt = s.roundAt[:0]
	return s
}

// Team returns the team the finish block synchronizes (set at Begin).
func (s *State) Team() *team.Team { return s.t }

// ensureOdd returns the current odd epoch box, creating it if needed.
func (s *State) ensureOdd() *epochBox {
	if s.odd == nil {
		s.odd = &epochBox{}
	}
	return s.odd
}

// currentBox is the epoch new activity on this image is counted in.
func (s *State) currentBox() *epochBox {
	if s.presentOdd {
		return s.ensureOdd()
	}
	return &s.even
}

// boxByParity returns the epoch box a message of the given stamp parity
// is counted in on this image.
func (s *State) boxByParity(odd bool) *epochBox {
	if odd {
		return s.ensureOdd()
	}
	return &s.even
}

// fold implements next_epoch's second branch: odd counters are folded
// into the even epoch, late credits for odd-counted messages are
// forwarded there, and the image returns to the even epoch.
func (s *State) fold() {
	if s.odd != nil {
		s.even.add(s.odd.epoch)
		s.odd.fwd = &s.even
		s.odd = nil
	}
	s.presentOdd = false
}

// totalQuiescent reports whether no acks or completions are outstanding —
// the garbage-collection condition for done states.
func (s *State) totalQuiescent() bool {
	return s.tSent == s.tDelivered && s.tReceived == s.tCompleted
}

// Config selects detection-algorithm variants.
type Config struct {
	// WaitQuiescent enables the Fig. 7 line-4 precondition, which bounds
	// detection to L+1 reduction rounds (Theorem 1). Disabling it yields
	// the "algorithm without upper bound" the paper compares against in
	// Fig. 18: the loop speculatively reduces as fast as it can; for
	// soundness it then needs Mattern-style four-counter double rounds
	// (two consecutive identical all-complete snapshots), which is
	// exactly why it burns roughly twice the reductions.
	WaitQuiescent bool
}

// Stats aggregates plane-wide observations.
type Stats struct {
	Finishes       int   // completed finish blocks (per-image count)
	ReduceRounds   int64 // total allreduce rounds across all finishes
	TrackedSends   int64
	TrackedArrives int64
	// LostActivities counts tracked operations charged off because they
	// were resident on (or in flight toward) a declared-dead image.
	// Always 0 without a failure detector.
	LostActivities int64
}

// Finish-plane fabric tags (degraded-mode survivor polls). The caf
// layer owns 300+, collect owns 100; these sit in their own range.
const (
	tagFinishPoll      uint16 = 290
	tagFinishPollReply uint16 = 291
)

// pollReq asks a survivor for its reconciled counter snapshot of one
// finish state; pollReply returns it. Vec is {sent', delivered',
// received', completed', lost} with the virtual charge-off pairs folded
// in.
type pollReq struct {
	ID    int64
	Round int
	From  int
}

type pollReply struct {
	ID    int64
	Round int
	Vec   [5]int64
}

// Plane is the finish termination-detection plane for one machine.
type Plane struct {
	k         *rt.Kernel
	comm      *collect.Comm
	cfg       Config
	images    []planeImage // by rank
	stats     Stats
	lastState []*State

	det     *failure.Detector // nil ⇒ legacy, non-resilient plane
	charged map[int]bool      // dead ranks whose tallies were consumed

	// Metrics instruments (nil — and every call a no-op — until
	// SetMetrics installs a registry).
	mFinishes *metrics.Counter
	mRounds   *metrics.Counter
	mPerBlock *metrics.Histogram
	mRoundNs  *metrics.Histogram
}

// planeImage is one image's finish state: its live states in finish-id
// order (a resilient plane, which never collects a state, keeps them
// all, and OnDeath walks them in that order) and its finish sequence
// number per team, in the order the image first entered a finish on each.
// The first entry of each comes from a slab of the plane's, so an image
// with one finish on one team at a time never grows them.
type planeImage struct {
	states []*State
	seqs   []teamSeq
}

// teamSeq is the number of finish blocks an image has entered on a team.
type teamSeq struct {
	team int64
	seq  uint64
}

// NewPlane builds the plane and installs it as k's message tracker.
func NewPlane(k *rt.Kernel, comm *collect.Comm, cfg Config) *Plane {
	n := k.NumImages()
	pl := &Plane{k: k, comm: comm, cfg: cfg, images: make([]planeImage, n), lastState: make([]*State, n)}
	states, seqs := make([]*State, n), make([]teamSeq, n)
	for i := range pl.images {
		pl.images[i] = planeImage{states: states[i : i : i+1], seqs: seqs[i : i : i+1]}
	}
	k.SetTracker(pl)
	k.RegisterHandler(tagFinishPoll, pl.handlePoll)
	k.RegisterHandler(tagFinishPollReply, pl.handlePollReply)
	return pl
}

// SetDetector switches the plane into resilient mode: tracked traffic
// keeps per-peer charge-off tallies, abandoned sends are reconciled,
// and End falls back to the survivor poll protocol once any image is
// declared dead. Must be called before the run starts; nil keeps the
// legacy plane bit-identical.
func (pl *Plane) SetDetector(d *failure.Detector) {
	pl.det = d
	if d != nil && pl.charged == nil {
		pl.charged = make(map[int]bool)
	}
}

// SetMetrics wires the plane's termination-detection accounting into a
// registry: per-image finish/round totals, a rounds-per-block histogram
// (the observational check of Theorem 1's ≤ L+1 bound), and per-round
// virtual-time durations. nil is fine and records nothing.
func (pl *Plane) SetMetrics(reg *metrics.Registry) {
	pl.mFinishes = reg.Counter("caf_finish_blocks_total", "finish blocks completed")
	pl.mRounds = reg.Counter("caf_finish_rounds_total", "termination-detection allreduce rounds")
	pl.mPerBlock = reg.Histogram("caf_finish_rounds_per_block", "detection rounds per finish block (Theorem 1: ≤ L+1)")
	pl.mRoundNs = reg.Histogram("caf_finish_round_ns", "virtual duration of each detection round")
}

// Stats returns a snapshot of plane counters.
func (pl *Plane) Stats() Stats { return pl.stats }

// state returns image rank's state for finish id, creating it lazily —
// tracked messages may arrive before the local image enters the block.
func (pl *Plane) state(rank int, id int64) *State {
	pi := &pl.images[rank]
	at, ok := slices.BinarySearchFunc(pi.states, id, func(s *State, id int64) int { return cmp.Compare(s.id, id) })
	if !ok {
		s := newState(id)
		if pl.det != nil {
			s.reconciling()
		}
		pi.states = slices.Insert(pi.states, at, s)
	}
	return pi.states[at]
}

// ActiveStates reports how many finish states image rank currently holds
// (for leak tests).
func (pl *Plane) ActiveStates(rank int) int { return len(pl.images[rank].states) }

// nextSeq counts a finish entered by image rank on team and returns its
// sequence number there.
func (pl *Plane) nextSeq(rank int, team int64) uint64 {
	pi := &pl.images[rank]
	for i := range pi.seqs {
		if pi.seqs[i].team == team {
			pi.seqs[i].seq++
			return pi.seqs[i].seq
		}
	}
	pi.seqs = append(pi.seqs, teamSeq{team: team, seq: 1})
	return 1
}

// Begin enters a finish block on img over t and returns its state. The
// id is derived from the team and the image's per-team finish sequence;
// SPMD programs therefore match blocks without communication.
func (pl *Plane) Begin(img *rt.ImageKernel, t *team.Team) *State {
	if !t.Contains(img.Rank()) {
		panic(fmt.Sprintf("core: image %d enters finish on %v it is not a member of", img.Rank(), t))
	}
	id := FinishID(t, pl.nextSeq(img.Rank(), t.ID()))
	s := pl.state(img.Rank(), id)
	if s.begun {
		panic(fmt.Sprintf("core: finish %d begun twice on image %d", id, img.Rank()))
	}
	s.begun = true
	s.t = t
	return s
}

// Ref returns the tracking context to attach to asynchronous operations
// initiated inside this finish block.
func (s *State) Ref() Ref { return Ref{ID: s.id} }

// End runs termination detection for the calling image on its proc p
// and returns the number of sum-reduction rounds used. All images of the
// team must call End for their matching block. In resilient mode the
// error is non-nil when the finish had to charge off activities on a
// declared-dead image (or this image was itself declared dead): the
// block has terminated — in bounded rounds over the survivor team — but
// some of the work it supervised is lost.
//
// p waits once, in WaitWith, while the state machine runs its rounds
// (step), the survivor poll's included; it goes on when the finish has
// terminated.
func (pl *Plane) End(p *sim.Proc, img *rt.ImageKernel, s *State) (int, *failure.ImageFailedError) {
	if !s.begun || s.done {
		panic("core: End on a finish that is not active")
	}
	s.waiter, s.pl, s.rank, s.prev = p, pl, int32(img.Rank()), -1
	p.WaitWith(s)
	s.waiter = nil
	rounds := len(s.RoundAt)
	var ferr *failure.ImageFailedError
	if r := s.resilience; r != nil {
		rounds += r.unrecorded
		ferr = r.ferr
	}
	pl.stats.Finishes++
	rank := img.Rank()
	pl.mFinishes.Add(rank, 1)
	pl.mRounds.Add(rank, int64(rounds))
	pl.mPerBlock.Observe(rank, int64(rounds))
	if pl.mRoundNs != nil {
		for i, at := range s.RoundAt {
			if i > 0 {
				pl.mRoundNs.ObserveTime(rank, at-s.RoundAt[i-1])
			}
		}
	}
	pl.lastState[img.Rank()] = s
	pl.maybeCollect(img.Rank(), s)
	return rounds, ferr
}

// LastState returns the most recently completed finish state on an image
// (diagnostics: Machine.FinishRoundTimes reads its rounds).
func (pl *Plane) LastState(rank int) *State { return pl.lastState[rank] }

// ready is the precondition of a detection round. Fig. 7 waits until all
// this image sent has landed and all it received has completed (line 4's
// wait_until), which bounds detection to L+1 rounds (Theorem 1); the
// speculative variant (Fig. 18) only for local execution to drain.
func (pl *Plane) ready(s *State) bool {
	if pl.cfg.WaitQuiescent {
		return s.even.quiescent()
	}
	return s.tReceived == s.tCompleted
}

// Wake is one step of the state machine, as WaitWith runs it: first on the
// main entering End, then in each event that would have resumed it.
func (s *State) Wake() (string, bool) { return s.pl.step(s) }

// step runs detection rounds as far as they go now and reports, as Wake
// does, what the main waits on next (the deadlock dumps' name for the
// phase) or that the finish has terminated (done). Each round waits on
// ready, sum-reduces over the team on the record a blocking Allreduce
// uses, and folds the epochs on the result. With a failure detector, a
// declared death diverts the machine to the survivor poll (poll) for
// good: the tree allreduce assumes every team member participates, which
// a dead (or already-exited) image cannot. A step makes the tests the
// blocking loops made when resumed at the same point, in the same order,
// so the schedule is the loops' to the event.
func (pl *Plane) step(s *State) (reason string, wait bool) {
	for {
		switch s.wait {
		case waitDrain, waitPoll:
			return pl.poll(s)
		case waitReduce:
			res, ok := s.red.Result()
			switch {
			case ok:
				s.done = pl.finishRound(s, res)
			case !pl.det.AnyDead():
				return "collective local data", true
			default: // the tree may wait on the dead image for good
				s.unrecorded++
			}
			s.red.Release()
		}
		s.wait = waitNone
		if s.done {
			return "", false
		}
		if pl.det.AnyDead() {
			return pl.poll(s)
		}
		if !pl.ready(s) {
			s.wait = waitReady
			if pl.cfg.WaitQuiescent {
				return "finish quiescence", true
			}
			return "finish local drain", true
		}
		// The contribution is computed in the timeslice the precondition
		// held in, so the snapshot is exactly the quiescent state.
		vec, n := [2]int64{s.tSent, s.tCompleted}, 2
		if pl.cfg.WaitQuiescent {
			// next_epoch, first call: proceed into the odd epoch unless an
			// odd-parity message already forced us there (lines 6-7).
			s.presentOdd = true
			vec[0], n = s.even.sent-s.even.completed, 1
		}
		pl.stats.ReduceRounds++
		s.red = pl.comm.StartAllreduce(pl.k.Image(int(s.rank)), s.t, collect.Sum, vec[:n], s.waiter)
		s.wait = waitReduce
	}
}

// finishRound reads the completed round's result, res, and reports
// whether the finish has terminated. Fig. 7 folds the odd epoch
// into the even one (next_epoch, lines 16-26) and ends on a zero sum.
// Without the line-4 precondition a single zero sum can be inconsistent,
// so the speculative variant ends only on two consecutive identical
// all-complete snapshots (Mattern's four-counter condition) — that extra
// confirmation wave, plus waves wasted on in-flight sends, is why it
// burns roughly twice the reductions of Fig. 7.
func (pl *Plane) finishRound(s *State, res []int64) bool {
	s.RoundAt = append(s.RoundAt, s.waiter.Now())
	if pl.cfg.WaitQuiescent {
		s.fold()
		return res[0] == 0 // Σ (sent − completed): no work left
	}
	sent, completed := res[0], res[1]
	if sent == completed && sent == s.prev {
		// Fold any stale odd epoch so late parity bookkeeping stays
		// consistent with Fig. 7-mode finishes elsewhere.
		s.fold()
		return true
	}
	s.prev = -1
	if sent == completed {
		s.prev = sent
	}
	return false
}

// ---------------------------------------------------------------------
// Degraded-mode termination: the survivor poll protocol.
// ---------------------------------------------------------------------

// snapshot returns rank's reconciled grand totals for finish id:
// {sent', delivered', received', completed', lost}, where the primed
// sums fold in the virtual charge-off pairs standing in for dead
// images. Answering creates the state lazily (all zeros) if this rank
// never touched the finish — a correct contribution.
func (pl *Plane) snapshot(rank int, id int64) [5]int64 {
	s := pl.state(rank, id)
	return [5]int64{
		s.tSent + s.adjSent,
		s.tDelivered + s.adjSent,
		s.tReceived + s.adjCompleted,
		s.tCompleted + s.adjCompleted,
		s.lost,
	}
}

// survivors returns the members of t not declared dead, ascending.
func (pl *Plane) survivors(t *team.Team) []int {
	members := t.Members()
	out := make([]int, 0, len(members))
	for _, r := range members {
		if !pl.det.Dead(r) {
			out = append(out, r)
		}
	}
	return out
}

// errForTeam builds the End error for a degraded finish: the lowest
// declared-dead member of t (or, if the deaths were all outside the
// team but activities were still lost, the lowest dead rank anywhere).
// Returns nil when nothing relevant to this finish failed.
func (pl *Plane) errForTeam(t *team.Team, lost int64) *failure.ImageFailedError {
	for _, r := range t.Members() {
		if pl.det.Dead(r) {
			at, _ := pl.det.DeadAt(r)
			return &failure.ImageFailedError{Rank: r, At: at, Op: "finish", Lost: lost}
		}
	}
	if lost > 0 {
		e := pl.det.ErrFor("finish")
		e.Lost = lost
		return e
	}
	return nil
}

// poll is the resilient termination protocol, which step enters once any
// image has been declared dead and runs as far as it goes now; it reports
// as step does. The tree allreduce of the normal path assumes every team
// member participates; a dead image cannot, and a survivor may already
// have left this finish (partial delivery of an earlier down-phase). So
// each survivor still inside End instead polls the survivor subset of the
// team directly, and every polled image answers from plain event context —
// available even after its procs exited or were aborted — with its
// reconciled totals (snapshot). A round waits for the local drain
// (everything delivered here has finished executing; aborted activities
// complete through their recover wrappers), then for every survivor's
// reply. The protocol ends on Mattern's four-counter condition over the
// primed sums: two consecutive identical balanced rounds (sent' ==
// delivered' and received' == completed'). With the virtual pairs standing
// in for the dead images' counters, a stable balanced snapshot means no
// surviving work and no in-flight tracked message, so the finish may
// release; it ends with an ImageFailedError when a team member died or
// activities were charged off. A new declaration mid-round restarts the
// round against the shrunken survivor set, so the protocol terminates in a
// bounded number of polls after the last declaration.
func (pl *Plane) poll(s *State) (reason string, wait bool) {
	me := int(s.rank)
	for {
		if pl.det.Dead(me) {
			// This image was itself declared dead; its polls would be
			// abandoned by the fabric and its finish can never conclude.
			if s.wait == waitPoll {
				s.unrecorded++
			}
			at, _ := pl.det.DeadAt(me)
			s.ferr = &failure.ImageFailedError{Rank: me, At: at, Op: "finish"}
			s.wait, s.done = waitNone, true
			return "", false
		}
		switch s.wait {
		case waitNone:
			s.wait = waitDrain
		case waitDrain:
			if s.tReceived != s.tCompleted {
				return "finish local drain", true
			}
			s.epoch = pl.det.DeathCount()
			s.survivors = pl.survivors(s.t)
			s.pollRound++
			pl.stats.ReduceRounds++
			s.pollReplies = map[int][5]int64{me: pl.snapshot(me, s.id)}
			for _, r := range s.survivors {
				if r != me {
					pl.k.Image(me).Send(r, tagFinishPoll,
						pollReq{ID: s.id, Round: s.pollRound, From: me},
						rt.SendOpts{Class: fabric.AMShort, Bytes: 24, NoCoalesce: true})
				}
			}
			s.wait = waitPoll
		case waitPoll:
			var sum [5]int64
			for _, r := range s.survivors {
				v, ok := s.pollReplies[r]
				if !ok && pl.det.DeathCount() == s.epoch {
					return "finish poll", true
				}
				for i := range sum {
					sum[i] += v[i]
				}
			}
			s.wait = waitNone
			if pl.det.DeathCount() != s.epoch {
				// Survivor set shrank mid-round: snapshots are not
				// comparable across declarations. Restart.
				s.unrecorded++
				s.haveLast = false
				continue
			}
			s.pollReplies = nil
			s.RoundAt = append(s.RoundAt, s.waiter.Now())
			cur := [4]int64{sum[0], sum[1], sum[2], sum[3]}
			if sum[0] == sum[1] && sum[2] == sum[3] && s.haveLast && cur == s.lastSum {
				s.ferr, s.done = pl.errForTeam(s.t, sum[4]), true
				return "", false
			}
			s.lastSum, s.haveLast = cur, true
			// Pace the next poll. The round was unbalanced (or not yet
			// confirmed), the imbalance is remote — the local drain
			// already held — and survivors push no notifications, so
			// re-polling before more messages can land would hot-spin the
			// network at RTT granularity. One heartbeat per round bounds
			// the poll count by the surviving work's duration over the
			// resilience timescale.
			s.waiter.WakeAfter(pl.det.Heartbeat())
			return "finish poll pace", true
		}
	}
}

// handlePoll answers a degraded-mode survivor poll with this image's
// reconciled snapshot. Runs in event context: no proc participation
// needed, so images that already left the finish still answer.
func (pl *Plane) handlePoll(d *rt.Delivery) {
	req := d.Payload.(pollReq)
	vec := pl.snapshot(d.Img.Rank(), req.ID)
	d.Img.Send(req.From, tagFinishPollReply,
		pollReply{ID: req.ID, Round: req.Round, Vec: vec},
		rt.SendOpts{Class: fabric.AMShort, Bytes: 48, NoCoalesce: true})
}

// handlePollReply records a snapshot on the polling image and wakes its
// detection step. Replies from superseded rounds are dropped.
func (pl *Plane) handlePollReply(d *rt.Delivery) {
	rep := d.Payload.(pollReply)
	s := pl.state(d.Img.Rank(), rep.ID)
	if s.pollReplies == nil || rep.Round != s.pollRound {
		return
	}
	s.pollReplies[d.Src] = rep.Vec
	if s.woken() {
		s.waiter.Unpark()
	}
}

// maybeCollect garbage-collects a finished state once no acks or
// completions remain outstanding (they can trail the final reduction).
// Resilient planes keep done states: their totals answer degraded-mode
// polls for peers that are still reconciling, and recreating a
// collected state lazily would contribute zeros.
func (pl *Plane) maybeCollect(rank int, s *State) {
	if pl.det != nil {
		return
	}
	if s.done && s.totalQuiescent() {
		pi := &pl.images[rank]
		if at, ok := slices.BinarySearchFunc(pi.states, s.id, func(s *State, id int64) int { return cmp.Compare(s.id, id) }); ok {
			pi.states = slices.Delete(pi.states, at, at+1)
		}
	}
}

// ---------------------------------------------------------------------
// rt.Tracker implementation.
// ---------------------------------------------------------------------

// OnSend counts the send in the sender's present epoch and stamps the
// message of finish block id with that parity and epoch binding.
func (pl *Plane) OnSend(src *rt.ImageKernel, id int64) Ref {
	s := pl.state(src.Rank(), id)
	box := s.currentBox()
	box.resolve().sent++
	s.tSent++
	pl.stats.TrackedSends++
	return Ref{ID: id, ParityOdd: s.presentOdd, SBox: box}
}

// OnReceive counts the arrival; an odd-parity message forces the receiver
// into its odd epoch (Fig. 7 message_handler). The box it returns is the
// receiving epoch, which the message's completion is credited to.
func (pl *Plane) OnReceive(dst *rt.ImageKernel, ref Ref) rt.TrackBox {
	s := pl.state(dst.Rank(), ref.ID)
	if ref.ParityOdd {
		s.presentOdd = true
		s.ensureOdd()
	}
	box := s.boxByParity(ref.ParityOdd)
	box.resolve().received++
	s.tReceived++
	pl.stats.TrackedArrives++
	return box
}

// OnComplete counts handler/shipped-function completion in the epoch that
// counted the receipt, and wakes the local detection step if waiting.
// In resilient mode it also mirrors the completion into completedFrom,
// keyed by the sender: if the sender later dies, each such completion
// becomes a virtual {sent, delivered} pair standing in for the send the
// dead image can no longer report. A completion arriving after the
// sender was already charged off applies the stand-in immediately.
func (pl *Plane) OnComplete(dst *rt.ImageKernel, src int, ref Ref, rbox rt.TrackBox) {
	s := pl.state(dst.Rank(), ref.ID)
	epochOf(rbox).completed++
	s.tCompleted++
	if pl.det != nil {
		if pl.charged[src] {
			s.adjSent++
		} else {
			if s.completedFrom == nil {
				s.completedFrom = make(map[int]int64)
			}
			s.completedFrom[src]++
		}
	}
	pl.wake(s)
	pl.maybeCollect(dst.Rank(), s)
}

// OnAck counts the delivery acknowledgement on the sender, in the epoch
// that counted the send. In resilient mode the ack is also mirrored into
// ackedTo, keyed by the destination: if that peer later dies, each acked
// send is charged off as a virtual {received, completed} pair (the work
// was resident on the dead image and will never be reported). An ack
// arriving after the peer was already charged off — the fabric event was
// scheduled before the crash — applies the charge-off immediately.
func (pl *Plane) OnAck(src *rt.ImageKernel, dst int, ref Ref) {
	s := pl.state(src.Rank(), ref.ID)
	epochOf(ref.SBox).delivered++
	s.tDelivered++
	if pl.det != nil {
		if pl.charged[dst] {
			s.adjCompleted++
			s.lost++
			pl.stats.LostActivities++
		} else {
			if s.ackedTo == nil {
				s.ackedTo = make(map[int]int64)
			}
			s.ackedTo[dst]++
		}
	}
	pl.wake(s)
	pl.maybeCollect(src.Rank(), s)
}

// OnAbandoned reconciles a tracked send the fabric gave up on (its
// destination NIC is dead, or retransmission was exhausted). The ack
// will never come, so the delivery is accounted locally — keeping the
// sender's sent == delivered quiescence predicate reachable — and the
// receipt + completion that will never happen remotely are charged off
// as a virtual pair. Only invoked when a failure detector is attached
// (rt strips the callback otherwise).
func (pl *Plane) OnAbandoned(src *rt.ImageKernel, ref Ref) {
	s := pl.state(src.Rank(), ref.ID)
	epochOf(ref.SBox).delivered++
	s.tDelivered++
	r := s.reconciling()
	r.adjCompleted++
	r.lost++
	pl.stats.LostActivities++
	pl.wake(s)
	pl.maybeCollect(src.Rank(), s)
}

// OnDeath consumes the per-peer mirror tallies for a newly declared-dead
// rank: acked sends toward it become virtual {received, completed} pairs
// (charged-off lost activities), and completions of its messages become
// virtual {sent, delivered} pairs. Called by the machine's failure
// subscriber at declaration time, before parked procs are woken, so
// every survivor's next poll snapshot is already reconciled. Iteration
// is in (rank, finish-id) order for determinism.
func (pl *Plane) OnDeath(dead int) {
	if pl.det == nil || pl.charged[dead] {
		return
	}
	pl.charged[dead] = true
	for rank := range pl.images {
		if rank == dead {
			continue
		}
		for _, s := range pl.images[rank].states {
			if n := s.ackedTo[dead]; n > 0 {
				s.adjCompleted += n
				s.lost += n
				pl.stats.LostActivities += n
				delete(s.ackedTo, dead)
			}
			if n := s.completedFrom[dead]; n > 0 {
				s.adjSent += n
				delete(s.completedFrom, dead)
			}
			if s.woken() {
				s.waiter.Unpark()
			}
		}
	}
}

var _ rt.Tracker = (*Plane)(nil)
