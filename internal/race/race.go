// Package race implements a vector-clock happens-before race detector
// for coarray accesses: the one the caf package runs when
// Config.Races is set.
//
// The paper's memory model (§IV) promises data-race-free behaviour only
// when conflicting one-sided accesses are ordered through events,
// finish, locks, or cofence. Flagging only accesses whose in-flight
// windows intersect in virtual time would miss the classic RandomAccess
// race (§IV-B: a put landing between another image's get/put pair)
// whenever the fabric happens to serialize the messages. This package
// instead tracks the happens-before partial order directly: two
// accesses race iff they touch intersecting index sets of the same
// coarray shard, at least one writes, and neither is ordered before the
// other — regardless of how this particular execution interleaved them.
//
// # Clocks and contexts
//
// Every execution context (an image's SPMD main proc, every shipped
// function, and every asynchronous operation) owns one component of a
// growing vector clock. Synchronization primitives move clocks around:
// release points join the releaser's clock into a sync object, acquire
// points join the sync object back into the acquirer. The caf layer
// owns the mapping from language constructs to edges (event notify/wait,
// lock transfer, finish entry/exit, cofence local-data completion, spawn
// initiation → remote execution, collective completion, and FIFO
// per-channel delivery order).
//
// # Shadow memory
//
// Accesses are recorded per (coarray, owner rank) as epoch-compressed
// entries: each entry keeps only its (context, epoch) pair plus the
// strided index range — O(1) happens-before tests against later
// accesses (the FastTrack epoch trick). Entries proven ordered before a
// covering newer access are pruned, so synchronized programs keep
// shadow state small; unordered histories are bounded by a per-region
// cap with an eviction counter (evicting can only lose reports, never
// invent them; caf's ConflictLog names the count).
package race

import (
	"fmt"

	"caf2go/internal/sim"
)

// Clock is a vector clock: component i is the number of release epochs
// observed from context i. Clocks grow as contexts are created; a
// missing trailing component reads as zero.
type Clock []uint32

// At returns component i, treating out-of-range as zero.
func (c Clock) At(i int) uint32 {
	if i < 0 || i >= len(c) {
		return 0
	}
	return c[i]
}

// CopyClock returns an independent copy of c.
func CopyClock(c Clock) Clock {
	if c == nil {
		return nil
	}
	return append(Clock(nil), c...)
}

// Join merges src into dst component-wise (max), growing dst as needed,
// and returns dst.
func Join(dst, src Clock) Clock {
	if len(src) > len(dst) {
		grown := make(Clock, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
	return dst
}

// JoinInto merges src into the clock at *dst (a sync variable).
func JoinInto(dst *Clock, src Clock) { *dst = Join(*dst, src) }

// Ctx is one execution context: a component id plus the context's
// current clock.
type Ctx struct {
	id int
	vc Clock
}

// ID returns the context's component index.
func (c *Ctx) ID() int { return c.id }

// Clock returns the context's live clock. Callers that store it across
// further context activity must copy it (Snapshot).
func (c *Ctx) Clock() Clock { return c.vc }

// Snapshot returns an independent copy of the context's current clock.
func (c *Ctx) Snapshot() Clock { return CopyClock(c.vc) }

// Epoch returns the context's own current component value.
func (c *Ctx) Epoch() uint32 { return c.vc[c.id] }

// Acquire joins clk into the context (an acquire edge).
func (c *Ctx) Acquire(clk Clock) { c.vc = Join(c.vc, clk) }

// ReleaseInto joins the context's clock into the sync variable at sv and
// advances the context's own epoch, so later activity is distinguishable
// from what the release covered.
func (c *Ctx) ReleaseInto(sv *Clock) {
	*sv = Join(*sv, c.vc)
	c.vc[c.id]++
}

// Tick advances the context's own epoch without releasing.
func (c *Ctx) Tick() { c.vc[c.id]++ }

// Access describes one side of a detected race.
type Access struct {
	Op    string   // operation name ("put", "copy_async write", …)
	Write bool     // whether the access writes
	Ctx   int      // context component id
	Time  sim.Time // virtual time the access was recorded
}

// Race is one detected happens-before violation.
type Race struct {
	Rank     int      // owning image of the shard
	Lo, Hi   int      // intersection window of the two index ranges
	Prior    Access   // the earlier-recorded access
	Current  Access   // the later-recorded access
	Detected sim.Time // virtual time of detection
}

// Missing describes the absent synchronization edge.
func (r Race) Missing() string {
	return fmt.Sprintf("no happens-before edge from %s (ctx %d) to %s (ctx %d): "+
		"order them with an event notify/wait pair, a finish block, a lock, or "+
		"a completion event on the asynchronous operation",
		r.Prior.Op, r.Prior.Ctx, r.Current.Op, r.Current.Ctx)
}

func (r Race) String() string {
	return fmt.Sprintf("race at image %d [%d,%d): %s (t=%v) unordered with %s (t=%v); %s",
		r.Rank, r.Lo, r.Hi, r.Current.Op, r.Current.Time, r.Prior.Op, r.Prior.Time,
		r.Missing())
}

// entry is one epoch-compressed shadow record.
type entry struct {
	lo, hi, step int
	write        bool
	ctx          int
	epoch        uint32 // accessor's own component at access time
	op           string
	t            sim.Time
}

// regionShadow is the access history of one (coarray, rank) shard.
type regionShadow struct {
	entries []entry
}

type regionKey struct {
	region any
	rank   int
}

// Detector is the machine-wide happens-before detector. It is not
// concurrency-safe: the simulator is single-threaded and deterministic,
// which the detector inherits.
type Detector struct {
	nextID  int
	regions map[regionKey]*regionShadow

	count   int64
	races   []Race
	dropped int64
	evicted int64

	// MaxEntries bounds each region's shadow history (0 = default).
	MaxEntries int
	// MaxRaces bounds the stored race reports; further races are
	// counted but dropped (0 = default).
	MaxRaces int
}

const (
	defaultMaxEntries = 512
	defaultMaxRaces   = 16
)

// NewDetector returns an empty detector.
func NewDetector() *Detector {
	return &Detector{regions: make(map[regionKey]*regionShadow)}
}

// alloc hands out a fresh clock component.
func (d *Detector) alloc() int {
	id := d.nextID
	d.nextID++
	return id
}

// NewCtx creates an execution context whose clock starts at parent
// (nil = empty) with a fresh component set to 1.
func (d *Detector) NewCtx(parent Clock) *Ctx {
	id := d.alloc()
	vc := make(Clock, id+1)
	copy(vc, parent)
	vc = Join(vc, parent)
	vc[id] = 1
	return &Ctx{id: id, vc: vc}
}

// OpClock allocates a clock for one asynchronous operation: a copy of
// base extended with a fresh component at 1. The component id identifies
// the operation's accesses; other contexts become ordered after them
// only by acquiring a sync object the component was released into.
func (d *Detector) OpClock(base Clock) (Clock, int) {
	id := d.alloc()
	clk := make(Clock, id+1)
	copy(clk, base)
	clk = Join(clk, base)
	clk[id] = 1
	return clk, id
}

// Count reports the total number of races observed.
func (d *Detector) Count() int64 { return d.count }

// Races returns the stored race reports, in detection order.
func (d *Detector) Races() []Race { return d.races }

// Dropped reports how many races were counted but not stored.
func (d *Detector) Dropped() int64 { return d.dropped }

// Evicted reports how many shadow entries were evicted at capacity;
// a nonzero value means some races may have gone unreported.
func (d *Detector) Evicted() int64 { return d.evicted }

// Access records one strided access [lo, hi) : step on the shard of
// region owned by rank, checks it against the recorded history, and
// reports every conflicting unordered pair. ctx is the accessing
// context's component id and clk its clock at the access; step ≤ 1
// means contiguous.
func (d *Detector) Access(region any, rank, lo, hi, step int, write bool, ctx int, clk Clock, op string, at sim.Time) {
	if lo >= hi {
		return
	}
	if step < 1 {
		step = 1
	}
	key := regionKey{region: region, rank: rank}
	sh := d.regions[key]
	if sh == nil {
		sh = &regionShadow{}
		d.regions[key] = sh
	}

	cur := entry{lo: lo, hi: hi, step: step, write: write, ctx: ctx, epoch: clk.At(ctx), op: op, t: at}

	live := sh.entries[:0]
	for _, e := range sh.entries {
		ordered := e.epoch <= clk.At(e.ctx)
		if (write || e.write) && !ordered && RangesIntersect(e.lo, e.hi, e.step, lo, hi, step) {
			iLo, iHi := maxI(e.lo, lo), minI(e.hi, hi)
			d.report(Race{
				Rank: rank, Lo: iLo, Hi: iHi,
				Prior:    Access{Op: e.op, Write: e.write, Ctx: e.ctx, Time: e.t},
				Current:  Access{Op: op, Write: write, Ctx: ctx, Time: at},
				Detected: at,
			})
		}
		// Compression: drop entries provably ordered before the new
		// access and fully covered by it (a covering ordered write
		// subsumes everything; a covering ordered read subsumes reads).
		if ordered && (write || !e.write) && covers(cur, e) {
			continue
		}
		live = append(live, e)
	}
	sh.entries = live

	maxE := d.MaxEntries
	if maxE <= 0 {
		maxE = defaultMaxEntries
	}
	if len(sh.entries) >= maxE {
		drop := len(sh.entries) - maxE + 1
		sh.entries = sh.entries[:copy(sh.entries, sh.entries[drop:])]
		d.evicted += int64(drop)
	}
	sh.entries = append(sh.entries, cur)
}

// report counts a race and stores it if within the report cap.
func (d *Detector) report(r Race) {
	d.count++
	maxR := d.MaxRaces
	if maxR <= 0 {
		maxR = defaultMaxRaces
	}
	if len(d.races) < maxR {
		d.races = append(d.races, r)
	} else {
		d.dropped++
	}
}

// covers reports whether every index touched by e lies inside a's index
// set. Exact for contiguous a and for identical strided shapes; other
// strided cases conservatively report false (no pruning).
func covers(a, e entry) bool {
	if a.step <= 1 {
		return e.lo >= a.lo && e.hi <= a.hi
	}
	return e.step == a.step && e.lo >= a.lo && e.hi <= a.hi &&
		(e.lo-a.lo)%a.step == 0
}

// RangesIntersect reports whether the strided index sets
// {lo1, lo1+s1, … < hi1} and {lo2, lo2+s2, … < hi2} share an element.
// Steps ≤ 1 mean contiguous. Exact: disjoint interleaved columns of a
// 2-D coarray do not intersect even when their [lo, hi) windows overlap.
func RangesIntersect(lo1, hi1, s1, lo2, hi2, s2 int) bool {
	lo := maxI(lo1, lo2)
	hi := minI(hi1, hi2)
	if lo >= hi {
		return false
	}
	if s1 <= 1 && s2 <= 1 {
		return true
	}
	if s1 <= 1 {
		return firstAligned(lo2, s2, lo) < hi
	}
	if s2 <= 1 {
		return firstAligned(lo1, s1, lo) < hi
	}
	// Both strided: need x ≡ lo1 (mod s1) and x ≡ lo2 (mod s2) with
	// lo ≤ x < hi — a CRT existence check on the overlap window.
	g, p, _ := egcd(s1, s2)
	if (lo2-lo1)%g != 0 {
		return false
	}
	lcm := s1 / g * s2
	// One solution: x0 = lo1 + s1 * ((lo2-lo1)/g * p mod s2/g).
	m := s2 / g
	t := mod((lo2-lo1)/g*p, m)
	x0 := lo1 + s1*t
	return firstAligned(x0, lcm, lo) < hi
}

// firstAligned returns the smallest x ≥ bound with x ≡ base (mod step).
func firstAligned(base, step, bound int) int {
	if base >= bound {
		// Walk down to the first aligned value ≥ bound.
		return base - (base-bound)/step*step
	}
	return base + (bound-base+step-1)/step*step
}

// egcd returns gcd(a, b) and Bézout coefficients x, y with ax+by = g.
func egcd(a, b int) (g, x, y int) {
	if b == 0 {
		return a, 1, 0
	}
	g, x1, y1 := egcd(b, a%b)
	return g, y1, x1 - a/b*y1
}

func mod(a, m int) int {
	a %= m
	if a < 0 {
		a += m
	}
	return a
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
