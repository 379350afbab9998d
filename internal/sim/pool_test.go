package sim

import (
	"reflect"
	"runtime"
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

// New carves records from one 4 KiB slab in order: each is the next
// element of the slab, and each is zero.
func TestPoolNewCarvesAdjacentZeroedRecords(t *testing.T) {
	var l FreeList[poolRec]
	size := unsafe.Sizeof(poolRec{})
	perSlab := slabBytes / int(size)
	prev := l.New()
	for i := 1; i < perSlab; i++ {
		r := l.New()
		if uintptr(unsafe.Pointer(r)) != uintptr(unsafe.Pointer(prev))+size {
			t.Fatalf("record %d is not adjacent to record %d of its slab", i, i-1)
		}
		if *r != (poolRec{}) {
			t.Fatalf("record %d is not zero: %v", i, *r)
		}
		r.n = i // a later carve must not hand out a written record
		prev = r
	}
	if r := l.New(); *r != (poolRec{}) {
		t.Fatalf("first record of the second slab is not zero: %v", *r)
	}
	if l.Len() != 0 {
		t.Errorf("carving left %d records waiting", l.Len())
	}
}

// ptrRec is a 128-byte record that holds a pointer, as a spawn's does.
type ptrRec struct {
	p *int
	_ [120]byte
}

// A slab of pointerful records stays in the 4 096-byte size class: it
// leaves room for the header the allocator puts in front of an object
// over 512 bytes that holds pointers, which a slab of exactly 4 096 bytes
// would push into the 4 864-byte class. A pointer-free slab needs no room.
func TestPoolSlabOfPointerfulRecordsFitsItsClass(t *testing.T) {
	if GoRace {
		t.Skip("allocation sizes are pinned without -race")
	}
	if got, want := perSlab[ptrRec](), (slabBytes-mallocHeader)/128; got != want {
		t.Errorf("%d pointerful 128-byte records per slab, want %d", got, want)
	}
	if got, want := perSlab[[128]byte](), slabBytes/128; got != want {
		t.Errorf("%d pointer-free 128-byte records per slab, want %d", got, want)
	}
	const lists = 64
	ls := make([]FreeList[ptrRec], lists)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range ls {
		ls[i].New()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / lists; per > slabBytes {
		t.Errorf("one slab of pointerful 128-byte records allocates %d B, want ≤ %d", per, slabBytes)
	}
}

// A page of the free list's stack holds pointers too, so it leaves the
// same room: 511 pointers stay in the 4 096-byte class, where 512 would
// make a 4 864-byte object.
func TestPoolFreeListPageFitsItsClass(t *testing.T) {
	if GoRace || QuarantinePools {
		t.Skip("allocation sizes are pinned without -race, pools on")
	}
	if got, want := pageLen*int(unsafe.Sizeof(unsafe.Pointer(nil))), slabBytes-mallocHeader; got != want {
		t.Errorf("a page holds %d B of pointers, want %d", got, want)
	}
	const lists = 64
	ls := make([]FreeList[ptrRec], lists)
	recs := make([]ptrRec, lists)
	for i := range ls {
		ls[i].pages = make([][]*ptrRec, 0, 1) // so that the first Put makes only its page
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range ls {
		ls[i].Put(&recs[i])
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / lists; per > slabBytes {
		t.Errorf("one page allocates %d B, want ≤ %d", per, slabBytes)
	}
}

// The stack keeps its LIFO order across the boundary of its 512-record
// pages, and New takes a waiting record before it carves.
func TestPoolFreeListIsLIFOAcrossPages(t *testing.T) {
	if QuarantinePools {
		t.Skip("a quarantined list keeps nothing")
	}
	var l FreeList[poolRec]
	recs := make([]poolRec, 2*pageLen+1)
	for i := range recs {
		l.Put(&recs[i])
	}
	if l.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(recs))
	}
	if got := l.New(); got != &recs[len(recs)-1] {
		t.Fatal("New did not take the record released last")
	}
	for i := len(recs) - 2; i >= 0; i-- {
		if got := l.Get(); got != &recs[i] {
			t.Fatalf("Get returned another record than number %d", i)
		}
	}
	if l.Get() != nil || l.Len() != 0 {
		t.Error("list not empty after taking every record")
	}
	if r := l.New(); r == nil || *r != (poolRec{}) {
		t.Errorf("New on an emptied list = %v, want a zero record", r)
	}
}

// Under quarantine New never hands out a released record: it carves.
func TestPoolQuarantineNewCarvesFresh(t *testing.T) {
	quarantinePools(t)
	var l FreeList[poolRec]
	released := map[*poolRec]bool{}
	for i := 0; i < 3*slabBytes; i++ {
		r := l.New()
		if released[r] {
			t.Fatalf("New returned record %p, released earlier", r)
		}
		if !l.Put(r) {
			t.Fatal("Put under quarantine did not report the record dead")
		}
		released[r] = true
	}
}

// A burst that takes 65 536 records from an empty list and releases them
// all makes one object per slab and per page of the stack, plus the few
// growths of the page table: records are not made one by one, and the
// stack is never copied.
func TestPoolBurstAllocatesSlabsAndPages(t *testing.T) {
	if GoRace || QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
	const burst = 1 << 16
	recs := make([]*poolRec, burst)
	run := func() {
		var l FreeList[poolRec]
		for i := range recs {
			recs[i] = l.New()
		}
		for _, r := range recs {
			l.Put(r)
		}
	}
	slabs := burst / (slabBytes / int(unsafe.Sizeof(poolRec{})))
	pages := (burst + pageLen - 1) / pageLen
	if n := testing.AllocsPerRun(5, run); n > float64(slabs+pages+16) {
		t.Errorf("allocations per burst of %d = %v, want ≤ %d slabs + %d pages + 16", burst, n, slabs, pages)
	}
}

// The free list itself must not allocate once its pages hold the pool's
// high-water mark.
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

// An event names what it runs in one interface word: a far-heap event
// stays 32 bytes and a near-wheel node 24 (queues of hundreds of
// thousands of pending events are that many slots).
// A function, a proc and a record are all scheduled without allocating,
// and all take their seq from the one counter, so ties run in the order
// they were scheduled whatever their kind.
func TestPoolEventNamesARecord(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Errorf("sizeof(event) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(wheelNode{}); got != 24 {
		t.Errorf("sizeof(wheelNode) = %d, want 24", got)
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

// outMsgSized stands in for the largest recycled record, rt's outMsg.
type outMsgSized [176]byte

var burstSink *outMsgSized

// BenchmarkFreeListBurst takes a credit-stalled burst's worth of records
// from a new list, as a new machine's first burst does, releases them
// and takes them again.
func BenchmarkFreeListBurst(b *testing.B) {
	recs := make([]*outMsgSized, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var l FreeList[outMsgSized]
		for j := range recs {
			recs[j] = l.New()
		}
		for _, r := range recs {
			l.Put(r)
		}
		for j := range recs {
			recs[j] = l.New()
		}
		burstSink = recs[len(recs)-1]
	}
}
