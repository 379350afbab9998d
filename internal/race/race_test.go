package race

import (
	"strings"
	"testing"

	"caf2go/internal/sim"
)

func TestClockJoinAndAt(t *testing.T) {
	a := Clock{1, 2}
	b := Clock{0, 5, 3}
	a = Join(a, b)
	if len(a) != 3 || a[0] != 1 || a[1] != 5 || a[2] != 3 {
		t.Fatalf("join = %v", a)
	}
	if a.At(7) != 0 {
		t.Fatal("out-of-range component must read as zero")
	}
	c := CopyClock(a)
	c[0] = 99
	if a[0] != 1 {
		t.Fatal("CopyClock aliases")
	}
}

func TestReleaseAcquireOrders(t *testing.T) {
	d := NewDetector()
	p := d.NewCtx(nil)
	q := d.NewCtx(nil)

	region := new(int)
	d.Access(region, 0, 0, 8, 1, true, p.ID(), p.Clock(), "put", 10)

	// p releases into a sync var, q acquires: q's later write is ordered.
	var sv Clock
	p.ReleaseInto(&sv)
	q.Acquire(sv)
	d.Access(region, 0, 0, 8, 1, true, q.ID(), q.Clock(), "put", 20)

	if d.Count() != 0 {
		t.Fatalf("ordered writes flagged: %v", d.Races())
	}
}

func TestUnorderedWritesRace(t *testing.T) {
	d := NewDetector()
	p := d.NewCtx(nil)
	q := d.NewCtx(nil)

	region := new(int)
	d.Access(region, 3, 0, 8, 1, true, p.ID(), p.Clock(), "put A", 10)
	d.Access(region, 3, 4, 12, 1, true, q.ID(), q.Clock(), "put B", 20)

	if d.Count() != 1 {
		t.Fatalf("count = %d, want 1", d.Count())
	}
	r := d.Races()[0]
	if r.Rank != 3 || r.Lo != 4 || r.Hi != 8 {
		t.Fatalf("race window = image %d [%d,%d)", r.Rank, r.Lo, r.Hi)
	}
	if r.Prior.Op != "put A" || r.Current.Op != "put B" {
		t.Fatalf("sites = %q / %q", r.Prior.Op, r.Current.Op)
	}
	if !strings.Contains(r.String(), "happens-before") {
		t.Fatalf("report lacks missing-edge hint: %s", r)
	}
}

func TestReadReadNeverRaces(t *testing.T) {
	d := NewDetector()
	p := d.NewCtx(nil)
	q := d.NewCtx(nil)
	region := new(int)
	d.Access(region, 0, 0, 8, 1, false, p.ID(), p.Clock(), "get", 10)
	d.Access(region, 0, 0, 8, 1, false, q.ID(), q.Clock(), "get", 20)
	if d.Count() != 0 {
		t.Fatalf("read/read flagged: %v", d.Races())
	}
	// A write unordered with both reads races with both.
	r := d.NewCtx(nil)
	d.Access(region, 0, 0, 8, 1, true, r.ID(), r.Clock(), "put", 30)
	if d.Count() != 2 {
		t.Fatalf("write vs two reads: count = %d, want 2", d.Count())
	}
}

func TestDisjointRangesNeverRace(t *testing.T) {
	d := NewDetector()
	p := d.NewCtx(nil)
	q := d.NewCtx(nil)
	region := new(int)
	d.Access(region, 0, 0, 4, 1, true, p.ID(), p.Clock(), "put", 10)
	d.Access(region, 0, 4, 8, 1, true, q.ID(), q.Clock(), "put", 20)
	// Same ranges on different ranks are different shards.
	d.Access(region, 1, 0, 4, 1, true, q.ID(), q.Clock(), "put", 30)
	if d.Count() != 0 {
		t.Fatalf("disjoint flagged: %v", d.Races())
	}
}

func TestSameContextProgramOrder(t *testing.T) {
	d := NewDetector()
	p := d.NewCtx(nil)
	region := new(int)
	for i := 0; i < 10; i++ {
		d.Access(region, 0, 0, 8, 1, true, p.ID(), p.Clock(), "put", sim.Time(i))
	}
	if d.Count() != 0 {
		t.Fatalf("same-context accesses flagged: %v", d.Races())
	}
}

func TestOpClockIndependentOfInitiator(t *testing.T) {
	d := NewDetector()
	p := d.NewCtx(nil)
	region := new(int)

	// An async op snapshots p's clock but writes under its own component.
	opClk, opID := d.OpClock(p.Snapshot())
	d.Access(region, 0, 0, 8, 1, true, opID, opClk, "copy_async write", 10)

	// p's own later access is NOT ordered after the op (no completion
	// acquired) → races.
	d.Access(region, 0, 0, 8, 1, true, p.ID(), p.Clock(), "put", 20)
	if d.Count() != 1 {
		t.Fatalf("initiator unordered with own async op: count = %d, want 1", d.Count())
	}

	// After acquiring the op's clock (completion edge), p is ordered.
	d2 := NewDetector()
	p2 := d2.NewCtx(nil)
	opClk2, opID2 := d2.OpClock(p2.Snapshot())
	d2.Access(region, 0, 0, 8, 1, true, opID2, opClk2, "copy_async write", 10)
	p2.Acquire(opClk2)
	d2.Access(region, 0, 0, 8, 1, true, p2.ID(), p2.Clock(), "put", 20)
	if d2.Count() != 0 {
		t.Fatalf("completion-ordered op flagged: %v", d2.Races())
	}
}

func TestReleaseTickPreventsStaleCoverage(t *testing.T) {
	d := NewDetector()
	p := d.NewCtx(nil)
	q := d.NewCtx(nil)
	region := new(int)

	// p releases, then writes. q acquires the released clock — it covers
	// p's pre-release epoch only, so p's post-release write must still
	// race with q's.
	var sv Clock
	p.ReleaseInto(&sv)
	d.Access(region, 0, 0, 8, 1, true, p.ID(), p.Clock(), "late put", 10)
	q.Acquire(sv)
	d.Access(region, 0, 0, 8, 1, true, q.ID(), q.Clock(), "put", 20)
	if d.Count() != 1 {
		t.Fatalf("post-release write not flagged: count = %d", d.Count())
	}
}

func TestStridedColumnsDisjoint(t *testing.T) {
	// Two interleaved columns of a row-major 2-D block: same [lo, hi)
	// window, step = row length, different phases — never intersect.
	if RangesIntersect(0, 32, 8, 1, 33, 8) {
		t.Fatal("disjoint columns reported intersecting")
	}
	// Same column does intersect.
	if !RangesIntersect(1, 33, 8, 1, 33, 8) {
		t.Fatal("identical columns reported disjoint")
	}
	// Column (step 8, phase 2) vs a contiguous row [0, 8): share x=2.
	if !RangesIntersect(2, 34, 8, 0, 8, 1) {
		t.Fatal("column crossing a row reported disjoint")
	}
	// Contiguous row [3, 8) vs column phase 2 step 8: 2 < 3, next is 10 ≥ 8.
	if RangesIntersect(2, 34, 8, 3, 8, 1) {
		t.Fatal("column missing the row window reported intersecting")
	}
	// Coprime steps always meet given a long enough window.
	if !RangesIntersect(0, 100, 3, 1, 100, 5) {
		t.Fatal("steps 3 and 5 share residues in [0,100)")
	}
	// Same parity never meets across phases with even steps.
	if RangesIntersect(0, 100, 4, 1, 100, 2) {
		t.Fatal("even step sets with odd offset reported intersecting")
	}
	if !RangesIntersect(0, 100, 4, 2, 100, 2) {
		t.Fatal("even step sets with even offset reported disjoint")
	}
	// Empty windows.
	if RangesIntersect(5, 5, 1, 0, 10, 1) {
		t.Fatal("empty range intersects")
	}
}

func TestStridedAccessesThroughDetector(t *testing.T) {
	d := NewDetector()
	p := d.NewCtx(nil)
	q := d.NewCtx(nil)
	region := new(int)
	// Unordered writes to two different columns: no race.
	d.Access(region, 0, 0, 32, 8, true, p.ID(), p.Clock(), "col 0", 10)
	d.Access(region, 0, 1, 33, 8, true, q.ID(), q.Clock(), "col 1", 20)
	if d.Count() != 0 {
		t.Fatalf("disjoint columns flagged: %v", d.Races())
	}
	// Same column from a third unordered context: races with the first.
	r := d.NewCtx(nil)
	d.Access(region, 0, 0, 32, 8, true, r.ID(), r.Clock(), "col 0 again", 30)
	if d.Count() != 1 {
		t.Fatalf("overlapping column: count = %d, want 1", d.Count())
	}
}

func TestShadowCompression(t *testing.T) {
	d := NewDetector()
	p := d.NewCtx(nil)
	region := new(int)
	// Repeated covering same-context writes must not grow the shadow.
	for i := 0; i < 100; i++ {
		d.Access(region, 0, 0, 8, 1, true, p.ID(), p.Clock(), "put", sim.Time(i))
	}
	sh := d.regions[regionKey{region: region, rank: 0}]
	if len(sh.entries) != 1 {
		t.Fatalf("shadow kept %d entries, want 1", len(sh.entries))
	}
	if d.Evicted() != 0 {
		t.Fatal("compression counted as eviction")
	}
}

func TestShadowEvictionBounded(t *testing.T) {
	d := NewDetector()
	d.MaxEntries = 8
	region := new(int)
	// Many pairwise-unordered read contexts on disjoint ranges: nothing
	// can be pruned, so the cap must evict.
	for i := 0; i < 32; i++ {
		c := d.NewCtx(nil)
		d.Access(region, 0, i, i+1, 1, false, c.ID(), c.Clock(), "get", sim.Time(i))
	}
	sh := d.regions[regionKey{region: region, rank: 0}]
	if len(sh.entries) > 8 {
		t.Fatalf("shadow grew to %d entries past cap 8", len(sh.entries))
	}
	if d.Evicted() == 0 {
		t.Fatal("eviction not counted")
	}
}

func TestRaceReportCapAndDropped(t *testing.T) {
	d := NewDetector()
	d.MaxRaces = 4
	region := new(int)
	for i := 0; i < 10; i++ {
		c := d.NewCtx(nil)
		d.Access(region, 0, 0, 1, 1, true, c.ID(), c.Clock(), "put", sim.Time(i))
	}
	// i-th access races with all i prior writes: 45 total.
	if d.Count() != 45 {
		t.Fatalf("count = %d, want 45", d.Count())
	}
	if len(d.Races()) != 4 {
		t.Fatalf("stored %d reports, want 4", len(d.Races()))
	}
	if d.Dropped() != 41 {
		t.Fatalf("dropped = %d, want 41", d.Dropped())
	}
}
