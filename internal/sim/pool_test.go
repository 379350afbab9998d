package sim

import "testing"

// quarantinePools turns QuarantinePools on for the rest of the test.
func quarantinePools(t *testing.T) {
	prev := QuarantinePools
	QuarantinePools = true
	t.Cleanup(func() { QuarantinePools = prev })
}

type poolRec struct{ n int }

func TestPoolFreeListIsLIFO(t *testing.T) {
	if QuarantinePools {
		t.Skip("a quarantined list keeps nothing")
	}
	var l FreeList[poolRec]
	if l.Get() != nil {
		t.Fatal("Get on an empty list returned a record")
	}
	a, b := &poolRec{1}, &poolRec{2}
	if l.Put(a) || l.Put(b) {
		t.Fatal("Put reported a record dead outside quarantine")
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if got := l.Get(); got != b {
		t.Errorf("first Get = %v, want the record released last", got)
	}
	if got := l.Get(); got != a {
		t.Errorf("second Get = %v, want the record released first", got)
	}
	if l.Get() != nil || l.Len() != 0 {
		t.Error("list not empty after taking both records")
	}
}

func TestPoolQuarantineKeepsNothing(t *testing.T) {
	quarantinePools(t)
	var l FreeList[poolRec]
	if !l.Put(&poolRec{1}) {
		t.Fatal("Put under quarantine did not report the record dead")
	}
	if l.Len() != 0 || l.Get() != nil {
		t.Error("a quarantined record was kept for reuse")
	}
}

// The free list itself must not allocate once its backing array has
// reached the pool's high-water mark.
func TestPoolFreeListDoesNotAllocate(t *testing.T) {
	if GoRace || QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
	var l FreeList[poolRec]
	recs := []*poolRec{{1}, {2}, {3}}
	cycle := func() {
		for _, r := range recs {
			l.Put(r)
		}
		for range recs {
			l.Get()
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("allocations per release/take cycle = %v, want 0", n)
	}
}
