// Package failure implements a deterministic heartbeat/lease failure
// detector for the simulated machine.
//
// Real detectors exchange heartbeats and declare a peer dead when its
// lease expires. Here both sides are virtual: the fabric's FaultPlan
// says exactly when each NIC dies, and the detector models the earliest
// deterministic moment the survivors could have noticed — the crash
// instant rounded up to the next heartbeat boundary (the last beat the
// dead image can no longer send) plus the lease. Because declaration is
// a plain engine event derived only from the crash schedule and the
// detector configuration, every run with the same seed and plan declares
// deaths at identical virtual times, preserving bit-identical replay.
//
// The zero Config disables the detector entirely: no events are
// scheduled, no allocations beyond the struct, and machine behavior is
// byte-for-byte what it was without the package.
package failure

import (
	"cmp"
	"fmt"
	"slices"

	"caf2go/internal/sim"
)

// DefaultHeartbeat is the heartbeat period used when Config.Heartbeat
// is zero but the detector is enabled.
const DefaultHeartbeat = 25 * sim.Microsecond

// ImageFailedError reports that an operation could not complete because
// an image was declared dead. Every blocking primitive that would
// otherwise hang on a dead peer surfaces one of these instead.
type ImageFailedError struct {
	// Rank is the declared-dead image the operation depended on (the
	// lowest-ranked one when several are implicated).
	Rank int
	// At is the virtual time the failure was declared.
	At sim.Time
	// Op names the operation that was aborted ("finish", "event wait",
	// "rpc", "collective", "cofence", ...).
	Op string
	// Lost counts activities charged off by a resilient finish (spawns
	// or tracked operations resident on dead images); 0 for other ops.
	Lost int64
}

func (e *ImageFailedError) Error() string {
	if e.Lost > 0 {
		return fmt.Sprintf("image %d failed (declared dead at %v): %s aborted, %d activities lost",
			e.Rank, e.At, e.Op, e.Lost)
	}
	return fmt.Sprintf("image %d failed (declared dead at %v): %s aborted", e.Rank, e.At, e.Op)
}

// Abort is the panic payload used to unwind a simulated process out of
// a blocking primitive when a required image is declared dead. The
// runtime's process wrappers recover it, record Err as the image's
// result, and let the process terminate cleanly — fail-stop semantics
// in the style of ULFM / X10 resilient finish.
type Abort struct {
	Err *ImageFailedError
}

// Config configures the failure detector. The zero value disables it.
type Config struct {
	// Enabled turns the detector on. Off (the default), crashes behave
	// exactly as before this package existed: peers retry into the dead
	// NIC and blocked synchronization hangs.
	Enabled bool

	// Heartbeat is the virtual heartbeat period. 0 means
	// DefaultHeartbeat.
	Heartbeat sim.Time

	// Lease is how long after the last expected heartbeat a peer is
	// given before being declared dead. 0 means 2×Heartbeat.
	Lease sim.Time
}

func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = DefaultHeartbeat
	}
	if c.Lease <= 0 {
		c.Lease = 2 * c.Heartbeat
	}
	return c
}

// Detector declares image deaths at deterministic virtual times and
// fans the declarations out to subscribers.
type Detector struct {
	eng  *sim.Engine
	cfg  Config
	dead []death // declared deaths, by ascending rank
	subs []func(rank int, at sim.Time)
}

// death is one declared-dead rank and its declaration time.
type death struct {
	rank int
	at   sim.Time
}

// find locates rank's declaration in d.dead, or where it would go.
func (d *Detector) find(rank int) (int, bool) {
	return slices.BinarySearchFunc(d.dead, rank, func(x death, rank int) int { return cmp.Compare(x.rank, rank) })
}

// New builds a detector for a machine of images ranks whose crash
// schedule is crash (the fabric FaultPlan's Crash map; may be nil; the
// machine rejects a rank outside [0, images)). Declaration events are
// scheduled immediately, in rank order. Returns nil if cfg.Enabled is
// false.
func New(eng *sim.Engine, images int, cfg Config, crash map[int]sim.Time) *Detector {
	if !cfg.Enabled {
		return nil
	}
	d := &Detector{eng: eng, cfg: cfg.withDefaults()}
	for r := 0; r < images; r++ {
		if crashAt, ok := crash[r]; ok {
			r, at := r, d.DetectionTime(crashAt)
			eng.At(at, func() { d.declare(r, at) })
		}
	}
	return d
}

// DetectionTime returns the deterministic declaration time for a crash
// at crashAt: the crash instant rounded up to the next heartbeat
// boundary (the first beat the dead image misses), plus the lease.
func (d *Detector) DetectionTime(crashAt sim.Time) sim.Time {
	hb := d.cfg.Heartbeat
	beat := (crashAt + hb - 1) / hb * hb
	if beat < crashAt {
		beat = crashAt
	}
	return beat + d.cfg.Lease
}

// Heartbeat returns the effective heartbeat period — the resilience
// timescale consumers use to pace their own recovery polling.
func (d *Detector) Heartbeat() sim.Time { return d.cfg.Heartbeat }

// declare marks rank dead and notifies subscribers, once.
func (d *Detector) declare(rank int, at sim.Time) {
	i, ok := d.find(rank)
	if ok {
		return
	}
	d.dead = slices.Insert(d.dead, i, death{rank, at})
	for _, fn := range d.subs {
		fn(rank, at)
	}
}

// Subscribe registers fn to run (inside the engine, at declaration
// time) for every death declared after this call. A late subscriber —
// one constructed after some deaths have already been declared, such as
// a recovery component built mid-run — is caught up immediately: every
// already-declared death is replayed synchronously, in rank order, with
// its original declaration time, before Subscribe returns. Components
// therefore never miss a declaration regardless of when they attach.
func (d *Detector) Subscribe(fn func(rank int, at sim.Time)) {
	if d == nil {
		return
	}
	d.subs = append(d.subs, fn)
	for _, x := range d.dead {
		fn(x.rank, x.at)
	}
}

// Dead reports whether rank has been declared dead. Safe on a nil
// detector (always false).
func (d *Detector) Dead(rank int) bool {
	_, ok := d.DeadAt(rank)
	return ok
}

// DeadAt returns the declaration time for rank, if declared.
func (d *Detector) DeadAt(rank int) (sim.Time, bool) {
	if d == nil {
		return 0, false
	}
	i, ok := d.find(rank)
	if !ok {
		return 0, false
	}
	return d.dead[i].at, true
}

// AnyDead reports whether any image has been declared dead.
func (d *Detector) AnyDead() bool { return d != nil && len(d.dead) > 0 }

// ErrFor builds an ImageFailedError for op naming the lowest declared-
// dead rank and its declaration time, or nil when nobody is dead.
func (d *Detector) ErrFor(op string) *ImageFailedError {
	if !d.AnyDead() {
		return nil
	}
	return &ImageFailedError{Rank: d.dead[0].rank, At: d.dead[0].at, Op: op}
}

// DeathCount reports how many images have been declared dead — a cheap
// epoch stamp for protocols that must restart when the survivor set
// shrinks mid-round.
func (d *Detector) DeathCount() int {
	if d == nil {
		return 0
	}
	return len(d.dead)
}

// DeadRanks returns the declared-dead ranks in ascending order.
func (d *Detector) DeadRanks() []int {
	if d == nil || len(d.dead) == 0 {
		return nil
	}
	ranks := make([]int, len(d.dead))
	for i, x := range d.dead {
		ranks[i] = x.rank
	}
	return ranks
}
