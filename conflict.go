package caf

import (
	"fmt"

	"caf2go/internal/race"
	"caf2go/internal/sim"
)

// Conflict detection, cheap tier: at Config.Races = RacesOverlap, the
// runtime tracks the coarray ranges touched by in-flight one-sided
// operations (CopyAsync, Get, Put) and flags overlapping concurrent
// accesses where at least one side writes — the data races the paper
// notes in the reference RandomAccess version (§IV-B: "a put can happen
// between a get/put pair updating a location"). Function-shipped updates
// execute atomically on the owner and therefore never trigger it.
//
// This tier only sees races whose operations overlap in virtual time; a
// racy pair the fabric happened to serialize goes unnoticed. The
// happens-before tier (RacesHappensBefore, race.go) catches those too.
// Whichever runs reports through Conflicts / ConflictLog /
// ConflictDetails.
//
// Only runtime-mediated accesses are visible; direct slice access through
// Coarray.Local is the image's own memory and is not tracked (the DRF0
// side of the paper's memory model covers it).

// accessRange is one in-flight operation's claim on coarray data.
type accessRange struct {
	id     int64
	region any // the coarray (identity)
	rank   int
	lo, hi int
	step   int // ≤ 1 = contiguous
	write  bool
	op     string
}

func (a accessRange) overlaps(b accessRange) bool {
	return a.region == b.region && a.rank == b.rank &&
		race.RangesIntersect(a.lo, a.hi, a.step, b.lo, b.hi, b.step)
}

// logEntry is one recorded conflict: the formatted line plus the fields
// ConflictDetails exposes. first is the earlier (in-flight) access.
type logEntry struct {
	t             sim.Time
	image         int
	lo, hi        int
	first, second string
	s             string
}

// conflictState is the machine-wide overlap detector.
type conflictState struct {
	nextID  int64
	active  []accessRange
	index   map[int64]int // access id -> position in active
	count   int64
	log     []logEntry
	dropped int64 // conflicts past conflictLogCap (counted, not logged)
}

const conflictLogCap = 16

// beginAccess registers an in-flight access and reports conflicts with
// currently active ones. Returns a release function.
func (m *Machine) beginAccess(region any, rank, lo, hi, step int, write bool, op string) func() {
	cs := m.conflicts
	if cs == nil || lo >= hi {
		return func() {}
	}
	cs.nextID++
	a := accessRange{id: cs.nextID, region: region, rank: rank, lo: lo, hi: hi, step: step, write: write, op: op}
	for _, b := range cs.active {
		if (a.write || b.write) && a.overlaps(b) {
			cs.count++
			if len(cs.log) >= conflictLogCap {
				cs.dropped++
				continue
			}
			iLo, iHi := max(a.lo, b.lo), min(a.hi, b.hi)
			cs.log = append(cs.log, logEntry{
				t: m.eng.Now(), image: rank, lo: iLo, hi: iHi,
				first: b.op, second: a.op,
				s: fmt.Sprintf("conflict at image %d [%d,%d): %s overlaps in-flight %s at t=%v",
					rank, iLo, iHi, a.op, b.op, m.eng.Now()),
			})
		}
	}
	if cs.index == nil {
		cs.index = make(map[int64]int)
	}
	cs.index[a.id] = len(cs.active)
	cs.active = append(cs.active, a)
	return func() {
		// O(1) release: swap the last active access into the slot.
		pos, ok := cs.index[a.id]
		if !ok {
			return
		}
		delete(cs.index, a.id)
		last := len(cs.active) - 1
		if pos != last {
			cs.active[pos] = cs.active[last]
			cs.index[cs.active[pos].id] = pos
		}
		cs.active[last] = accessRange{}
		cs.active = cs.active[:last]
	}
}

// Conflicts reports the number of violations the Config.Races tier
// observed: temporal overlaps or happens-before races. 0 with RacesOff.
func (m *Machine) Conflicts() int64 {
	switch {
	case m.conflicts != nil:
		return m.conflicts.count
	case m.race != nil:
		return m.race.d.Count()
	}
	return 0
}

// ConflictLog returns descriptions of the first few conflicts in
// chronological order. When more were observed than logged, the final
// entry summarizes the overflow ("… and N more").
func (m *Machine) ConflictLog() []string {
	var out []string
	var dropped int64
	if cs := m.conflicts; cs != nil {
		for _, e := range cs.log {
			out = append(out, e.s)
		}
		dropped = cs.dropped
	}
	if rs := m.race; rs != nil {
		for _, r := range rs.d.Races() {
			out = append(out, fmt.Sprintf("race at image %d [%d,%d): %s unordered with %s at t=%v",
				r.Rank, r.Lo, r.Hi, r.Current.Op, r.Prior.Op, r.Detected))
		}
		dropped = rs.d.Dropped()
	}
	if dropped > 0 {
		out = append(out, fmt.Sprintf("… and %d more", dropped))
	}
	return out
}
