// Package repl implements primary-backup replication of coarray shard
// state plus an ULFM-style shrink-and-recover protocol for the
// simulated machine.
//
// The package supplies the two deterministic building blocks the caf
// layer wires together:
//
//   - Manager: the per-machine epoch authority. It subscribes to the
//     failure detector and, on each death declaration, runs a
//     Mattern-style double collect over the surviving team: two
//     consecutive heartbeat-paced observations of the declared-death
//     count that agree. When they do, the manager commits — epoch++,
//     the observed deaths become *committed* (routable-around), the
//     survivor team is re-derived via team.Without — and subscribers
//     (routing tables, parked clients) are notified inside the engine.
//     A declaration landing between the two collects invalidates the
//     observation; the collect restarts, exactly like a finish-epoch
//     double collect invalidated by in-flight work. Because every
//     collect is a plain engine event derived only from the detector's
//     declaration schedule and the heartbeat period, commit times are
//     bit-identical across runs and GOMAXPROCS.
//
//   - Table: a replica-group routing table over a fixed member chain.
//     Placement is static — home h's backup copy lives on the next
//     member of the ring — while routing is epoch-driven: Primary walks
//     the replica group (home, then its backup) and returns the first
//     member whose death has NOT been committed. Routing
//     therefore never changes at a raw declaration, only at an epoch
//     commit, so every image flips its routes at the same virtual
//     instant.
//
// The separation mirrors the failure-tolerant fast-path design of
// eventually-consistent collectives (arXiv 2203.17063): the data path
// (asynchronous mirror writes, issued by the caf layer) never blocks on
// the control path (agreement), and survivors keep serving at the old
// epoch until the commit atomically rewrites the routes.
package repl

import (
	"errors"

	"caf2go/internal/failure"
	"caf2go/internal/sim"
	"caf2go/internal/team"
)

// Config configures replication; the zero value disables it and leaves
// machine behavior bit-identical to a build without this package.
type Config struct {
	// Enabled turns on replication: replicated coarrays mirror writes
	// to their backup rank and the epoch manager runs shrink-and-recover
	// agreement on failure declarations. Recovery additionally requires
	// the failure detector; with detection off, mirrors still flow but
	// no promotion ever happens.
	Enabled bool
}

// groupWidth is the replica group routing considers: a primary and the
// one backup the mirror write path materializes.
const groupWidth = 2

// Stats is a snapshot of the manager's recovery accounting.
type Stats struct {
	// Epoch counts committed agreements; 0 until the first recovery.
	Epoch int
	// EpochAt is the commit time of the latest epoch (0 when Epoch is 0).
	EpochAt sim.Time
	// Promotions counts committed-dead ranks — each one a routing
	// rewrite promoting its backup.
	Promotions int64
	// AgreeRounds counts collect rounds executed across all agreements.
	AgreeRounds int64
	// Restarts counts double collects invalidated by a declaration
	// landing between the two observations (a crash mid-recovery).
	Restarts int64
}

// Manager is the per-machine epoch authority: it turns failure
// declarations into committed epoch bumps via double-collect agreement.
// A nil *Manager is valid and inert (replication off).
type Manager struct {
	eng    *sim.Engine
	det    *failure.Detector
	images int

	epoch     int
	epochAt   sim.Time
	committed map[int]sim.Time // rank → commit time of its epoch
	survivors *team.Team       // nil only when every image is committed dead

	collecting bool
	lastCount  int // death count seen by the previous collect; -1 = none

	stats Stats

	subs []func(epoch int, at sim.Time)
}

// NewManager builds the epoch manager. Returns nil — replication off —
// unless cfg.Enabled and a live detector are supplied. The detector
// subscription replays any already-declared deaths (late-subscriber
// catch-up), so a manager constructed mid-run still converges.
func NewManager(eng *sim.Engine, det *failure.Detector, images int, cfg Config) *Manager {
	if !cfg.Enabled || det == nil {
		return nil
	}
	m := &Manager{
		eng:       eng,
		det:       det,
		images:    images,
		committed: make(map[int]sim.Time),
		survivors: team.World(images),
		lastCount: -1,
	}
	det.Subscribe(m.onDeath)
	return m
}

// Subscribe registers fn to run inside the engine at every epoch
// commit, after the routing state (committed set, survivor team) has
// been rewritten.
func (m *Manager) Subscribe(fn func(epoch int, at sim.Time)) {
	if m == nil {
		return
	}
	m.subs = append(m.subs, fn)
}

// onDeath arms the agreement on a fresh declaration. Declarations that
// land while a double collect is already running are picked up by the
// running collect (it observes the changed count and restarts), so only
// the idle→collecting transition schedules anything.
func (m *Manager) onDeath(rank int, at sim.Time) {
	_ = rank
	if m.collecting {
		return
	}
	m.collecting = true
	m.lastCount = -1
	start := at
	if now := m.eng.Now(); now > start {
		start = now // late-subscription replay: don't schedule in the past
	}
	m.eng.At(start+m.det.Heartbeat(), m.collect)
}

// collect is one observation round of the Mattern-style double collect:
// snapshot the declared-death count; if it matches the previous round's
// snapshot the survivor set was stable across a full heartbeat and the
// epoch commits, otherwise (first round, or a crash landed mid-
// agreement) remember the snapshot and go around again.
func (m *Manager) collect() {
	now := m.eng.Now()
	m.stats.AgreeRounds++
	count := m.det.DeathCount()
	if count == m.lastCount {
		m.commit(now)
		return
	}
	if m.lastCount >= 0 {
		m.stats.Restarts++
	}
	m.lastCount = count
	m.eng.At(now+m.det.Heartbeat(), m.collect)
}

// commit installs the agreed epoch: every declared death becomes
// committed (routable-around), the survivor team shrinks, and
// subscribers plus parked procs are notified — the atomic routing
// rewrite every image observes at the same virtual time.
func (m *Manager) commit(now sim.Time) {
	m.collecting = false
	m.lastCount = -1
	dead := m.det.DeadRanks()
	for _, r := range dead {
		if _, ok := m.committed[r]; !ok {
			m.committed[r] = now
			m.stats.Promotions++
		}
	}
	m.epoch++
	m.epochAt = now
	surv, err := team.World(m.images).Without(dead...)
	switch {
	case err == nil:
		m.survivors = surv
	case errors.Is(err, team.ErrEmptyTeam):
		// Nobody left: nothing to promote or route to. Routing tables
		// will answer -1 everywhere and clients fail typed.
		m.survivors = nil
	default:
		panic(err) // Without has no other failure mode
	}
	for _, fn := range m.subs {
		fn(m.epoch, now)
	}
}

// Epoch returns the committed epoch number (0 before any recovery, and
// always 0 on a nil manager).
func (m *Manager) Epoch() int {
	if m == nil {
		return 0
	}
	return m.epoch
}

// EpochAt returns the commit time of the latest epoch.
func (m *Manager) EpochAt() sim.Time {
	if m == nil {
		return 0
	}
	return m.epochAt
}

// Committed reports whether rank's death has been committed by an epoch
// agreement — the condition under which routing has moved past it and
// in-flight requests may be replayed against its successor.
func (m *Manager) Committed(rank int) bool {
	if m == nil {
		return false
	}
	_, ok := m.committed[rank]
	return ok
}

// CommittedAt returns the epoch-commit time that absorbed rank's death.
func (m *Manager) CommittedAt(rank int) (sim.Time, bool) {
	if m == nil {
		return 0, false
	}
	t, ok := m.committed[rank]
	return t, ok
}

// Survivors returns the world survivor team as of the latest committed
// epoch (team_world before any recovery; nil when everyone is committed
// dead).
func (m *Manager) Survivors() *team.Team {
	if m == nil {
		return nil
	}
	return m.survivors
}

// Stats snapshots the recovery accounting (zero value on nil).
func (m *Manager) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	s := m.stats
	s.Epoch = m.epoch
	s.EpochAt = m.epochAt
	return s
}

// Table routes the replica groups of a fixed member chain. Placement is
// static — the backup copy of the chain's i-th member lives on member
// i+1 (mod n) — and routing is epoch-driven: a dead member is skipped
// only once its death has been committed. All state lives in the
// manager, so every image sharing a chain derives identical routes at
// identical virtual times. A Table with a nil manager routes statically
// (home always serves).
type Table struct {
	mgr     *Manager
	members []int
}

// NewTable builds a routing table over members (world ranks, chain
// order).
func NewTable(mgr *Manager, members []int) *Table {
	return &Table{mgr: mgr, members: append([]int(nil), members...)}
}

// Members returns the chain in order; the caller must not modify it.
func (t *Table) Members() []int { return t.members }

// Backup returns the world rank holding home's backup copy — the next
// chain member — or -1 when the chain has a single member (nowhere to
// mirror). home is a chain index.
func (t *Table) Backup(home int) int {
	if len(t.members) < 2 {
		return -1
	}
	return t.members[(home+1)%len(t.members)]
}

// Primary returns the world rank currently serving home's replica
// group: the first of home and its backup (home alone on a one-member
// chain) whose death has not been committed, or -1 when the whole group
// is committed dead (the shard's data is gone; requests against it fail
// typed). home is a chain index.
func (t *Table) Primary(home int) int {
	n := len(t.members)
	for i := 0; i < min(groupWidth, n); i++ {
		r := t.members[(home+i)%n]
		if !t.mgr.Committed(r) {
			return r
		}
	}
	return -1
}
