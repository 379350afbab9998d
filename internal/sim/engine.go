package sim

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync/atomic"
)

// DefaultLookahead is the near/far horizon used until SetLookahead is
// called with the fabric's real minimum link latency.
const DefaultLookahead = 1 * Microsecond

// Engine is a deterministic discrete-event simulator, sharded for scale.
//
// Exactly one strand of execution — either an event callback or a simulated
// process (Proc) — runs at any moment. Proc bodies run on coroutines: the
// goroutine driving Run and a proc's goroutine switch directly into one
// another (the runtime's coroutine hand-off behind iter.Pull), without a
// trip through the Go scheduler, and a coroutine whose body has returned
// idles on a free list until the next proc's start event takes it over.
// Because all ties in the event queue are broken by schedule order and all
// randomness flows from the engine's seeded generator, runs are bit-for-bit
// reproducible.
//
// The event queue is partitioned across shards (NewEngineSharded): each
// shard owns the events of the images assigned to it, with its own heap,
// virtual clock, and derived RNG stream. Admission is a conservative
// merge: the engine always executes the globally smallest (time, seq)
// key over all shard heads, so the schedule — and therefore every
// Report, trace, metric, op id, and RNG draw — is identical for every
// shard count and GOMAXPROCS. What sharding buys is that the queue
// maintenance (heap sifts, batch merges, run pre-sorting) for shards > 1
// moves onto per-shard worker goroutines, off the admission strand;
// event callbacks themselves stay serialized because Coarray programs
// freely share Go state across images.
type Engine struct {
	now Time
	seq uint64

	shards    []*shard
	cur       int  // shard owning the currently executing strand
	lookahead Time // near/far horizon, from the fabric's min link latency
	par       bool // far-domain workers requested (shards > 1)
	workersUp bool

	current    *Proc
	procs      ProcList // unfinished procs, in creation order
	nextProcID int
	live       int
	idle       []*coro // coroutines whose body has returned; LIFO

	rng        *rand.Rand
	seed       int64
	eventsRun  uint64
	crossPosts uint64
	stopped    bool
	procErr    error // first panic captured from a proc

	onStrand atomic.Bool // an event callback (or a proc it resumed) is running
}

// NewEngine returns a single-shard engine whose randomness derives from
// seed. Identical to NewEngineSharded(seed, 1).
func NewEngine(seed int64) *Engine { return NewEngineSharded(seed, 1) }

// NewEngineSharded returns an engine whose event queue is partitioned
// across nshards shards. Shard count never changes simulation results;
// it only changes where queue maintenance runs. Setting SIM_SERIAL=1 in
// the environment disables the worker goroutines (for debugging); the
// schedule is bit-identical either way.
func NewEngineSharded(seed int64, nshards int) *Engine {
	if nshards < 1 {
		nshards = 1
	}
	e := &Engine{
		rng:       rand.New(rand.NewSource(seed)),
		seed:      seed,
		lookahead: DefaultLookahead,
	}
	e.shards = make([]*shard, nshards)
	for i := range e.shards {
		e.shards[i] = newShard(e, i)
	}
	e.par = nshards > 1 && os.Getenv("SIM_SERIAL") == ""
	return e
}

// ShardOf maps an image rank to its owning shard: contiguous blocks, so
// that images co-located on a fabric node land on the same shard.
func ShardOf(rank, images, shards int) int {
	if shards <= 1 || images <= 0 {
		return 0
	}
	if rank < 0 {
		rank = 0
	}
	if rank >= images {
		rank = images - 1
	}
	if shards > images {
		shards = images
	}
	return rank * shards / images
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// EventsRun reports how many events have executed so far.
func (e *Engine) EventsRun() uint64 { return e.eventsRun }

// NumShards reports how many shards partition the event queue.
func (e *Engine) NumShards() int { return len(e.shards) }

// Lookahead returns the conservative synchronization horizon.
func (e *Engine) Lookahead() Time { return e.lookahead }

// SetLookahead sets the near/far horizon, normally to the fabric's
// minimum cross-shard link latency. It is a performance knob only: any
// positive value yields the same schedule.
func (e *Engine) SetLookahead(d Time) {
	if d < 0 {
		d = 0
	}
	e.lookahead = d
}

// CrossShardPosts reports how many events were scheduled onto a shard
// other than the one executing at the time — the cross-shard "inbox"
// traffic of the conservative merge.
func (e *Engine) CrossShardPosts() uint64 { return e.crossPosts }

// ShardStat is one shard's admission counters.
type ShardStat struct {
	Admitted uint64 // events executed on this shard
	CrossIn  uint64 // events posted into this shard from other shards
	Now      Time   // the shard's virtual clock (last admitted event)
}

// ShardStats returns per-shard admission counters, indexed by shard id.
func (e *Engine) ShardStats() []ShardStat {
	out := make([]ShardStat, len(e.shards))
	for i, s := range e.shards {
		out[i] = ShardStat{Admitted: s.admitted, CrossIn: s.crossIn, Now: s.now}
	}
	return out
}

// ShardRand returns shard id's own deterministic stream, derived from
// the engine seed. The runtime draws from per-image streams instead, so
// results never depend on shard count.
func (e *Engine) ShardRand(id int) *rand.Rand { return e.shards[id].rng }

// Rand returns the engine's deterministic random generator. It must only
// be used from within the simulation (events or procs), never concurrently.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// DeriveRand returns an independent generator seeded deterministically from
// the engine seed and id, for per-image random streams.
func (e *Engine) DeriveRand(id int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*0x9E3779B1 + id*0x85EBCA77 + 0x165667B1))
}

// At schedules fn to run at absolute virtual time t (clamped to now) on
// the shard of the currently executing strand.
func (e *Engine) At(t Time, fn func()) { e.AtShard(e.cur, t, fn) }

// AtShard schedules fn at time t on a specific shard. Cross-shard posts
// (shard differs from the executing strand's) are counted as inbox
// traffic; they are admitted exactly when their (time, seq) key becomes
// the global minimum, so ordering is unaffected.
func (e *Engine) AtShard(shard int, t Time, fn func()) {
	e.schedule(shard, t, event{fn: fn})
}

// atProc schedules p's next event — its start or a wake-up — at time t on
// its own shard. It is AtShard in every respect the schedule can see.
func (e *Engine) atProc(t Time, p *Proc) {
	e.schedule(p.shard, t, event{p: p})
}

func (e *Engine) schedule(shard int, t Time, ev event) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	s := e.shards[shard]
	if shard != e.cur {
		e.crossPosts++
		s.crossIn++
	}
	ev.at, ev.seq = t, e.seq
	s.push(ev)
}

// After schedules fn to run d from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Stop makes Run return after the current event completes. Pending events
// remain queued; Run may be called again to resume.
func (e *Engine) Stop() { e.stopped = true }

// OnStrand reports whether the caller is on the simulation's single
// execution strand: inside an event callback, or inside a proc the
// engine has resumed. State shared across images (trace buffers, metric
// registries, op lifecycles) may only be touched on the strand.
func (e *Engine) OnStrand() bool { return e.onStrand.Load() }

// AssertStrand panics if called off the simulation strand. Choke points
// that stamp shared state (e.g. op stage advancement) call this so that
// a stray goroutine touching the runtime fails loudly instead of
// silently racing the admission loop.
func (e *Engine) AssertStrand(what string) {
	if !e.onStrand.Load() {
		panic(fmt.Sprintf("sim: %s called off the simulation strand", what))
	}
}

// DeadlockError is returned by Run when no events remain but live
// processes are still blocked.
type DeadlockError struct {
	Now    Time
	Parked []string // descriptions of the blocked processes
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d blocked proc(s): %s",
		d.Now, len(d.Parked), strings.Join(d.Parked, ", "))
}

// Run executes events until the queue drains, Stop is called, or a process
// panics. If the queue drains while processes remain blocked, Run returns
// a *DeadlockError describing them.
func (e *Engine) Run() error { return e.RunUntil(Forever) }

// RunUntil executes events with timestamps ≤ limit. On return the clock
// reads min(limit, time of last event) unless the queue drained first.
//
// This is the conservative-merge admission loop: pick the shard whose
// head key (time, global seq) is smallest, admit exactly that event, and
// advance both the global clock and that shard's clock. Induction on the
// admission sequence shows the schedule equals the single-heap engine's.
func (e *Engine) RunUntil(limit Time) error {
	e.stopped = false
	e.ensureWorkers()
	for !e.stopped {
		s := e.minShard()
		if s == nil {
			break
		}
		if s.head.at > limit {
			e.now = limit
			return nil
		}
		ev := s.popHead()
		e.now = ev.at
		s.now = ev.at
		e.cur = s.id
		e.eventsRun++
		s.admitted++
		e.onStrand.Store(true)
		ev.run()
		e.onStrand.Store(false)
		if e.procErr != nil {
			return e.procErr
		}
	}
	if e.stopped {
		return nil
	}
	// The queue drained: no start event is left to take an idle
	// coroutine, and a caller may never come back, so their goroutines
	// end here.
	e.releaseIdle()
	if e.live > 0 {
		var parked []string
		for _, p := range e.procs.Live() {
			parked = append(parked, p.describe())
		}
		sort.Strings(parked)
		return &DeadlockError{Now: e.now, Parked: parked}
	}
	return nil
}

// minShard returns the shard holding the globally smallest event key,
// or nil when every shard is empty. Shard heads are maintained exactly
// (pushes min-compare, pops recompute), so this is a plain scan.
func (e *Engine) minShard() *shard {
	var best *shard
	bk := keyMax
	for _, s := range e.shards {
		if s.head.less(bk) {
			bk = s.head
			best = s
		}
	}
	return best
}

// ensureWorkers attaches far-domain workers to every shard (shards > 1).
func (e *Engine) ensureWorkers() {
	if !e.par || e.workersUp {
		return
	}
	for _, s := range e.shards {
		s.spawnWorker()
	}
	e.workersUp = true
}

// ReleaseWorkers stops all shard worker goroutines and folds their far
// domains back into the near heaps. The engine keeps working afterwards
// in serial-merge mode (and respawns workers on the next Run). Callers
// that own an engine must release workers when a run completes so that
// abandoned simulations do not leak goroutines.
func (e *Engine) ReleaseWorkers() {
	if !e.workersUp {
		return
	}
	for _, s := range e.shards {
		s.releaseWorker()
	}
	e.workersUp = false
}

// WakeAllParked unparks every currently parked process, in creation
// order. Callers use it to force re-evaluation of every blocked wait
// condition after a global state change (e.g. a failure declaration);
// all park sites re-check their condition in a loop, so the wakeups are
// harmless where the condition still holds.
func (e *Engine) WakeAllParked() {
	for _, p := range e.procs.procs {
		if p.state == procParked {
			p.Unpark()
		}
	}
}

// Idle reports whether no events are pending and no processes are live.
func (e *Engine) Idle() bool { return e.minShard() == nil && e.live == 0 }

// LiveProcs reports the number of processes that have not finished.
func (e *Engine) LiveProcs() int { return e.live }

// Shutdown aborts all live processes, in creation order, unwinding each
// started body (its deferred calls run) and ending its goroutine, then
// ends the idle coroutines and releases any shard workers: no goroutine
// the engine started outlives it. It must be called from outside the
// simulation (after Run returns), typically via defer in tests that
// abandon a simulation mid-flight.
func (e *Engine) Shutdown() {
	for _, p := range e.procs.Live() {
		if p.co == nil {
			// Never started: there is no body to unwind, and the queued
			// start event will find the proc done.
			p.state, p.body = procDone, nil
			e.live--
			continue
		}
		e.cur = p.shard
		e.current = p
		p.co.stop()
		e.current = nil
	}
	e.releaseIdle()
	e.ReleaseWorkers()
}

// resumeProc transfers control to p until it yields back.
func (e *Engine) resumeProc(p *Proc) {
	prev := e.current
	e.current = p
	p.co.next()
	e.current = prev
}

// Current returns the process currently executing, or nil when the engine
// is running a plain event callback.
func (e *Engine) Current() *Proc { return e.current }
