package caf_test

import (
	"fmt"
	"strings"
	"testing"

	caf "caf2go"
	"caf2go/internal/ra"
)

// TestRaceDetectorCatchesTemporallyDisjointRace is the acceptance
// scenario: two conflicting writes that never overlap in virtual time
// (the second starts milliseconds after the first completed) but have no
// happens-before edge between them. The detector must flag them. Adding
// the missing edge (a destination-completion event the second writer
// waits on) silences it.
func TestRaceDetectorCatchesTemporallyDisjointRace(t *testing.T) {
	run := func(ordered bool) int64 {
		m := caf.NewMachine(caf.Config{Images: 3, Seed: 1, Races: true})
		m.Launch(func(img *caf.Image) {
			ca := caf.NewCoarray[int64](img, nil, 8)
			ev := img.NewEvent()
			evs := img.Gather(nil, 0, ev, 16)
			img.Barrier(nil)
			switch img.Rank() {
			case 0:
				src := []int64{1, 1, 1, 1}
				if ordered {
					// Notify image 1's event once the data has landed.
					done := evs[1].(*caf.Event)
					caf.CopyAsync(img, ca.Sec(2, 0, 4), caf.Local(src), caf.DestEvent(done))
				} else {
					caf.CopyAsync(img, ca.Sec(2, 0, 4), caf.Local(src))
					img.Cofence(caf.AllowNone, caf.AllowNone)
				}
			case 1:
				if ordered {
					img.EventWait(ev)
				} else {
					// Long past the first write's completion: no temporal
					// overlap, but also no synchronization edge.
					img.Compute(20 * caf.Millisecond)
				}
				src := []int64{2, 2, 2, 2}
				caf.CopyAsync(img, ca.Sec(2, 0, 4), caf.Local(src))
				img.Cofence(caf.AllowNone, caf.AllowNone)
			}
		})
		if _, err := m.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
		return m.Conflicts()
	}

	if run(false) == 0 {
		t.Error("detector missed the unordered write pair")
	}

	if races := run(true); races != 0 {
		t.Errorf("event-ordered variant flagged races=%d, want 0", races)
	}
}

// TestRaceReportNamesMissingEdge checks the structured report: both
// access sites and a description of the absent synchronization edge.
func TestRaceReportNamesMissingEdge(t *testing.T) {
	m := caf.NewMachine(caf.Config{Images: 3, Seed: 1, Races: true})
	m.Launch(func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 8)
		img.Barrier(nil)
		if img.Rank() == 1 {
			img.Compute(10 * caf.Millisecond)
		}
		if img.Rank() <= 1 {
			caf.Put(img, ca.Sec(2, 0, 4), []int64{int64(img.Rank()), 0, 0, 0})
		}
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	details := m.ConflictDetails()
	if len(details) == 0 {
		t.Fatal("no race reported")
	}
	r := details[0]
	if r.Image != 2 {
		t.Errorf("report = %+v", r)
	}
	if r.First == "" || r.Second == "" {
		t.Errorf("missing access sites: %+v", r)
	}
	if !strings.Contains(r.Missing, "no happens-before edge") {
		t.Errorf("Missing = %q", r.Missing)
	}
	log := m.ConflictLog()
	if len(log) == 0 || !strings.Contains(log[0], "race at image 2") {
		t.Errorf("log = %v", log)
	}
}

// TestRaceDetectorCleanOnSynchronizedPatterns exercises each edge the
// runtime installs: barrier, lock, and finish-covered spawn ordering.
// All are properly synchronized, so the detector must stay silent even
// though the accesses conflict on range.
func TestRaceDetectorCleanOnSynchronizedPatterns(t *testing.T) {
	// Barrier-separated conflicting writes.
	m := caf.NewMachine(caf.Config{Images: 3, Seed: 1, Races: true})
	m.Launch(func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 8)
		img.Barrier(nil)
		if img.Rank() == 0 {
			caf.Put(img, ca.Sec(2, 0, 4), []int64{1, 1, 1, 1})
		}
		img.Barrier(nil)
		if img.Rank() == 1 {
			caf.Put(img, ca.Sec(2, 0, 4), []int64{2, 2, 2, 2})
		}
		img.Barrier(nil)
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if n := m.Conflicts(); n != 0 {
		t.Errorf("barrier-ordered writes flagged %d conflicts: %v", n, m.ConflictLog())
	}

	// Lock-serialized read-modify-write from two images.
	var final int64
	m = caf.NewMachine(caf.Config{Images: 3, Seed: 1, Races: true})
	m.Launch(func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 1)
		img.Barrier(nil)
		if img.Rank() != 2 {
			for i := 0; i < 8; i++ {
				img.Lock(2, 0)
				v := caf.Get(img, ca.Sec(2, 0, 1))
				caf.Put(img, ca.Sec(2, 0, 1), []int64{v[0] + 1})
				img.Unlock(2, 0)
			}
		}
		img.Barrier(nil)
		if img.Rank() == 2 {
			final = ca.Local(img)[0]
		}
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if final != 16 {
		t.Errorf("lock-serialized counter = %d, want 16", final)
	}
	if n := m.Conflicts(); n != 0 {
		t.Errorf("lock-serialized updates flagged %d conflicts: %v", n, m.ConflictLog())
	}

	// Finish-covered spawn: the spawned child's write happens-before
	// every member's post-finish code, so image 1's later write is
	// ordered even though no message ever flowed from the child to it.
	m = caf.NewMachine(caf.Config{Images: 3, Seed: 1, Races: true})
	m.Launch(func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 8)
		img.Barrier(nil)
		img.Finish(nil, func() {
			if img.Rank() == 0 {
				img.Spawn(2, func(r *caf.Image) {
					caf.Put(r, ca.Sec(2, 0, 4), []int64{1, 1, 1, 1})
				})
			}
		})
		if img.Rank() == 1 {
			caf.Put(img, ca.Sec(2, 0, 4), []int64{2, 2, 2, 2})
		}
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if n := m.Conflicts(); n != 0 {
		t.Errorf("finish-ordered spawn write flagged %d conflicts: %v", n, m.ConflictLog())
	}
}

// TestEventCallbackWaiterInterleaving pins the post-dispatch rule: a
// registered predicate callback consumes an incoming post before blocked
// waiters are considered, and consuming it must not wake them (they
// would find count == 0). Two notifies satisfy one predicate-gated copy
// plus one waiter, in whichever order the posts land.
func TestEventCallbackWaiterInterleaving(t *testing.T) {
	var got []int64
	var leftover int64
	m := caf.NewMachine(caf.Config{Images: 3, Seed: 1, Races: true})
	m.Launch(func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 4)
		var ev *caf.Event
		if img.Rank() == 0 {
			ev = img.NewEvent()
		}
		gate := img.Broadcast(nil, 0, ev, 16).(*caf.Event)
		switch img.Rank() {
		case 0:
			// Blocked waiter on the same event the predicate chain uses.
			img.EventWait(gate)
		case 1:
			// Predicate-gated copy: registers a callback on image 0.
			src := []int64{7, 7, 7, 7}
			caf.CopyAsync(img, ca.Sec(2, 0, 4), caf.Local(src), caf.Pred(gate))
			img.Cofence(caf.AllowNone, caf.AllowNone)
		case 2:
			// Give the callback and waiter time to register, then post
			// twice: one post for each consumer.
			img.Compute(5 * caf.Millisecond)
			img.EventNotify(gate)
			img.EventNotify(gate)
		}
		img.Barrier(nil)
		if img.Rank() == 2 {
			got = append([]int64(nil), ca.Local(img)...)
		}
		if img.Rank() == 0 {
			leftover = img.EventCount(gate)
		}
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 7 {
			t.Fatalf("gated copy not applied: shard = %v (index %d)", got, i)
		}
	}
	if leftover != 0 {
		t.Errorf("posts left over: %d, want 0 (callback and waiter each consume one)", leftover)
	}
}

// TestConflictLogChronological is the regression test for the log
// ordering bug: entries were sorted lexicographically, which reorders
// conflicts whose image numbers disagree with their timestamps. An early
// conflict at image 3 must precede a later one at image 2.
func TestConflictLogChronological(t *testing.T) {
	m := caf.NewMachine(caf.Config{Images: 4, Seed: 1, Races: true})
	m.Launch(func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 8)
		img.Barrier(nil)
		src := []int64{9, 9, 9, 9}
		if img.Rank() <= 1 {
			caf.CopyAsync(img, ca.Sec(3, 0, 4), caf.Local(src))
			img.Cofence(caf.AllowNone, caf.AllowNone)
		}
		img.Barrier(nil)
		img.Compute(5 * caf.Millisecond)
		if img.Rank() <= 1 {
			caf.CopyAsync(img, ca.Sec(2, 0, 4), caf.Local(src))
			img.Cofence(caf.AllowNone, caf.AllowNone)
		}
		img.Barrier(nil)
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	log := m.ConflictLog()
	at3, at2 := -1, -1
	for i, line := range log {
		if at3 < 0 && strings.Contains(line, "image 3") {
			at3 = i
		}
		if at2 < 0 && strings.Contains(line, "image 2") {
			at2 = i
		}
	}
	if at3 < 0 || at2 < 0 {
		t.Fatalf("expected conflicts at both images, log = %v", log)
	}
	if at3 > at2 {
		t.Errorf("log not chronological: image-3 conflict (t early) at index %d, image-2 (t late) at %d\n%v",
			at3, at2, log)
	}
	details := m.ConflictDetails()
	for i := 1; i < len(details); i++ {
		if details[i].Time < details[i-1].Time {
			t.Errorf("ConflictDetails out of order at %d: %v > %v", i, details[i-1].Time, details[i].Time)
		}
	}
}

// TestConflictLogTruncationReported is the regression test for silent
// log truncation: past the cap the log must still say how many entries
// were dropped, and the full count must remain exact.
func TestConflictLogTruncationReported(t *testing.T) {
	m := caf.NewMachine(caf.Config{Images: 3, Seed: 1, Races: true})
	m.Launch(func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 4)
		img.Barrier(nil)
		if img.Rank() != 2 {
			// Two images write one range of image 2's shard, 12 times
			// each, with nothing ordering one image's writes after the
			// other's.
			src := []int64{1, 2, 3, 4}
			for i := 0; i < 12; i++ {
				caf.Put(img, ca.Sec(2, 0, 4), src)
			}
		}
		img.Barrier(nil)
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	total := m.Conflicts()
	if total <= 16 {
		t.Fatalf("scenario produced only %d conflicts, need > cap (16)", total)
	}
	log := m.ConflictLog()
	if len(log) != 17 {
		t.Fatalf("log length = %d, want 16 entries + truncation marker", len(log))
	}
	last := log[len(log)-1]
	if !strings.Contains(last, "more") {
		t.Errorf("truncation not reported, last entry = %q", last)
	}
	if !strings.Contains(last, fmt.Sprintf("… and %d more", total-16)) {
		t.Errorf("dropped count wrong, last entry = %q (total %d)", last, total)
	}
}

// TestConflictLogReportsEviction: the detector keeps at most 512
// accesses of history per coarray shard, and a race against an evicted
// access goes uncounted. GUP RandomAccess on a small table with many
// updates per word overflows that cap, so the log must end by saying so:
// Conflicts is then a lower bound.
func TestConflictLogReportsEviction(t *testing.T) {
	cfg := ra.DefaultConfig(ra.GetUpdatePut)
	cfg.LocalTableBits = 6
	cfg.UpdatesPerImage = 1024
	res, err := ra.Run(caf.Config{Images: 4, Seed: 1, Races: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := res.ConflictLog
	if len(log) != 18 {
		t.Fatalf("log length = %d, want 16 entries + truncation + eviction lines: %v", len(log), log)
	}
	if !strings.Contains(log[16], "more") {
		t.Errorf("truncation line = %q", log[16])
	}
	if last := log[17]; !strings.Contains(last, "103 accesses evicted") {
		t.Errorf("eviction not reported, last entry = %q", last)
	}
}

// TestRaceDetectorNoChannelEdgesOnReorderingFabric: channel clocks order
// successive deliveries on a (src, dst) channel only when the fabric
// delivers that channel in order. A fault plan reorders it (here by
// jitter alone), so eight back-to-back copies into one element land in a
// seed-dependent order and every pair of them races: C(8,2) = 28. On
// a fault-free fabric the same program is ordered and clean, on the
// default cost model and on a sparse custom one alike.
func TestRaceDetectorNoChannelEdgesOnReorderingFabric(t *testing.T) {
	run := func(seed int64, fab caf.FabricConfig) (races, final int64) {
		m := caf.NewMachine(caf.Config{Images: 2, Seed: seed, Races: true, Fabric: fab})
		m.Launch(func(img *caf.Image) {
			ca := caf.NewCoarray[int64](img, nil, 1)
			img.Barrier(nil)
			if img.Rank() == 0 {
				for v := int64(1); v <= 8; v++ {
					caf.CopyAsync(img, ca.Sec(1, 0, 1), caf.Local([]int64{v}))
				}
				img.Cofence(caf.AllowNone, caf.AllowNone)
			} else {
				img.Compute(caf.Millisecond)
				final = ca.Local(img)[0]
			}
		})
		if _, err := m.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
		return m.Conflicts(), final
	}
	reordered := false
	for seed := int64(1); seed <= 8; seed++ {
		jittered := caf.DefaultFabric()
		jittered.Faults = &caf.FaultPlan{Jitter: 40 * caf.Microsecond}
		races, final := run(seed, jittered)
		if races != 28 {
			t.Errorf("seed %d: jittered fabric (last write landed: %d) reported %d races, want 28", seed, final, races)
		}
		reordered = reordered || final != 8
		if races, final := run(seed, caf.DefaultFabric()); races != 0 || final != 8 {
			t.Errorf("seed %d: FIFO fabric reported %d races with final value %d, want 0 and 8", seed, races, final)
		}
		sparse := caf.FabricConfig{Latency: 5 * caf.Microsecond}
		if races, final := run(seed, sparse); races != 0 || final != 8 {
			t.Errorf("seed %d: sparse fault-free fabric reported %d races with final value %d, want 0 and 8", seed, races, final)
		}
	}
	if !reordered {
		t.Error("jitter never reordered the copies: the scenario exercises nothing")
	}
}
