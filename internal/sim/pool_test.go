package sim

import (
	"reflect"
	"testing"
	"unsafe"
)

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

type countEvent struct{ log *[]string }

func (c countEvent) RunEvent() { *c.log = append(*c.log, "record") }

// An event names what it runs in one interface word and stays 32 bytes:
// a heap of hundreds of thousands of pending events is that many slots.
// A function, a proc and a record are all scheduled without allocating,
// and all take their seq from the one counter, so ties run in the order
// they were scheduled whatever their kind.
func TestPoolEventNamesARecord(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Errorf("sizeof(event) = %d, want 32", got)
	}
	e := NewEngine(1)
	var log []string
	rec := &countEvent{log: &log}
	fn := func() { log = append(log, "func") }
	p := e.Go("proc", func(p *Proc) {
		log = append(log, "proc")
		p.Sleep(5)
		log = append(log, "proc")
	})
	e.AtEvent(5, rec)
	e.At(5, fn)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"proc", "record", "func", "proc"}; !reflect.DeepEqual(log, want) {
		t.Errorf("ran %v, want %v", log, want)
	}
	if p.State() != "done" {
		t.Errorf("proc %s", p.State())
	}
	if GoRace || QuarantinePools {
		return
	}
	schedule := func() {
		e.At(e.Now()+1, fn)
		e.AtEvent(e.Now()+1, rec)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	schedule()
	if n := testing.AllocsPerRun(100, schedule); n != 0 {
		t.Errorf("allocations per At + AtEvent + Run = %v, want 0", n)
	}
}
