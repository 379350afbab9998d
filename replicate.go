package caf

import (
	"fmt"

	"caf2go/internal/metrics"
	"caf2go/internal/repl"
)

// mirrorOverheadBytes models the AM header of a mirror write (seq, home,
// slot, value envelope) on top of the element payload.
const mirrorOverheadBytes = 24

// ReplCoarray is a primary-backup replicated coarray: a Coarray whose
// shards are owned by the members of a replica *chain*, with every
// write to chain index h asynchronously mirrored to the next chain
// member. Combined with Config.Replication and the failure detector,
// the chain survives single failures per replica group: once a death is
// committed by the epoch agreement, Serving routes the group to the
// promoted backup and replayed requests are answered exactly once from
// the per-home applied ledger.
//
// Addressing is by *chain index* (home), not world rank: home h's
// authoritative shard lives on chain[h], its backup copy on chain[h+1]
// (mod len). All mutation goes through Apply on the image currently
// serving the home — arbitrary Local slice writes would be invisible to
// the mirror path.
type ReplCoarray[T any] struct {
	m    *Machine
	tbl  *repl.Table
	prim *Coarray[T] // chain[h]'s own shard holds home h
	mirr *Coarray[T] // chain[h+1]'s shard holds the copy of home h

	// Exactly-once ledgers, one per home: request seq → the value the
	// first application produced. A replay (same home, same seq) returns
	// the recorded value without re-applying, at whichever copy it lands
	// on.
	appliedP []map[int]T
	appliedB []map[int]T

	mMirror *metrics.Counter // resolved at the first mirror write
}

// NewReplCoarray collectively allocates a replicated coarray of n
// elements per home over team t (nil means team_world). Every member of
// t must call it (it embeds two collective Coarray allocations and
// synchronizes the team); chain selects the ranks that actually hold
// and serve replica groups — nil means all of t, a subset (e.g. the
// server ranks of a client/server workload) confines placement to those
// ranks while still letting every image (clients included) share the
// routing table and ship Apply closures.
func NewReplCoarray[T any](img *Image, t *Team, n int, chain []int) *ReplCoarray[T] {
	if t == nil {
		t = img.m.world
	}
	prim := NewCoarray[T](img, t, n)
	mirr := NewCoarray[T](img, t, n)
	if chain == nil {
		chain = t.Members()
	}
	for _, r := range chain {
		if !t.Contains(r) {
			panic(fmt.Sprintf("caf: replica chain member %d is not in %v", r, t))
		}
	}
	// Match the wrapper itself through the collective-allocation slots so
	// the applied ledgers are one shared object, like the coarrays.
	st := img.st
	st.carrSeq[t.ID()]++
	key := carrKey{teamID: t.ID(), seq: st.carrSeq[t.ID()]}
	slot, ok := img.m.coarrays[key]
	if !ok {
		rc := &ReplCoarray[T]{
			m:        img.m,
			tbl:      repl.NewTable(img.m.repl, chain),
			prim:     prim,
			mirr:     mirr,
			appliedP: make([]map[int]T, len(chain)),
			appliedB: make([]map[int]T, len(chain)),
		}
		for i := range chain {
			rc.appliedP[i] = make(map[int]T)
			rc.appliedB[i] = make(map[int]T)
		}
		slot = &carrSlot{obj: rc}
		img.m.coarrays[key] = slot
	}
	rc, ok := slot.obj.(*ReplCoarray[T])
	if !ok || rc.prim != prim || rc.mirr != mirr {
		panic("caf: mismatched collective replicated-coarray allocation (type, size, or chain differs across images)")
	}
	return rc
}

// Len returns the per-home shard length.
func (rc *ReplCoarray[T]) Len() int { return rc.prim.Len() }

// Serving returns the world rank currently serving home's replica
// group: the primary until its death is committed, then the promoted
// backup, then -1 once the whole group is committed dead (the shard is
// gone; requests against it fail typed). Routing flips only at epoch
// commits, so every image observes the same route at the same virtual
// time.
func (rc *ReplCoarray[T]) Serving(home int) int { return rc.tbl.Primary(home) }

// Backup returns the world rank holding home's backup copy under the
// static placement (next chain member), or -1 for a single-member
// chain.
func (rc *ReplCoarray[T]) Backup(home int) int { return rc.tbl.Backup(home) }

// Apply performs the update fn on home's shard at the copy img serves,
// exactly once per (home, seq): a first application mutates the local
// copy, records seq → result in the applied ledger, and — on the
// primary — asynchronously mirrors the resulting value to the backup; a
// replay of an already-applied seq (a request re-issued after a
// failover whose original reply was lost) returns the recorded result
// without re-applying. img must be the home's primary or backup; route
// requests with Serving.
func (rc *ReplCoarray[T]) Apply(img *Image, home, seq, slot int, fn func(T) T) T {
	members := rc.tbl.Members()
	if home < 0 || home >= len(members) {
		panic(fmt.Sprintf("caf: home %d out of chain range %d", home, len(members)))
	}
	me := img.Rank()
	if me == members[home] {
		if v, ok := rc.appliedP[home][seq]; ok {
			return v
		}
		sh := rc.prim.Local(img)
		v := fn(sh[slot])
		sh[slot] = v
		rc.appliedP[home][seq] = v
		if b := rc.tbl.Backup(home); b >= 0 && b != me && !rc.m.ImageDead(b) {
			if rc.mMirror == nil {
				rc.mMirror = rc.m.met.Counter("repl_mirror_writes_total", "mirror writes shipped to backup copies")
			}
			rc.mMirror.Add(me, 1)
			// The mirror ships the absolute resulting value, not the
			// update, so it is idempotent and order-tolerant; it rides
			// the normal AM path (small enough to coalesce). It only stores
			// two values, so it runs Inline, as a callback.
			img.Spawn(b, func(s *Image) {
				rc.mirr.Local(s)[slot] = v
				rc.appliedB[home][seq] = v
			}, WithBytes(rc.prim.ElemBytes()+mirrorOverheadBytes), withMirrorPath(), Inline(0))
		}
		return v
	}
	if me == rc.tbl.Backup(home) {
		if v, ok := rc.appliedB[home][seq]; ok {
			return v
		}
		ms := rc.mirr.Local(img)
		v := fn(ms[slot])
		ms[slot] = v
		rc.appliedB[home][seq] = v
		return v
	}
	panic(fmt.Sprintf("caf: image %d applying to home %d it holds no copy of", me, home))
}

// Read returns home's current value at slot from the copy img serves,
// without touching the applied ledger. img must be the home's primary
// or backup.
func (rc *ReplCoarray[T]) Read(img *Image, home, slot int) T {
	members := rc.tbl.Members()
	me := img.Rank()
	switch me {
	case members[home]:
		return rc.prim.Local(img)[slot]
	case rc.tbl.Backup(home):
		return rc.mirr.Local(img)[slot]
	}
	panic(fmt.Sprintf("caf: image %d reading home %d it holds no copy of", me, home))
}
