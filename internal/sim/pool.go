package sim

import (
	"reflect"
	"slices"
	"unsafe"
)

// QuarantinePools is a test-only switch for the record pools of the
// message path (DESIGN §4.14). While it is set, a FreeList keeps nothing:
// every released record is reported dead to its owner, which marks it, and
// every bound entry point of a marked record panics with the record's
// kind. A record that is still referenced after what its owner took for
// the last reference then fails loudly instead of being silently shared
// with the next message. Results must not depend on it: pooled and
// quarantined runs of one seed are compared with reflect.DeepEqual.
//
// It is a package variable, not a Config field: no program sets it, only
// tests do (around a whole run, never in the middle of one), or the
// quarantinepools build tag does for a whole test binary.
var QuarantinePools = quarantineDefault

// slabBytes is the size of the block New carves records from: a size
// class of Go's allocator, so a slab wastes only a tail under one record.
const slabBytes = 4096

// mallocHeader is what Go's allocator (since 1.22) puts in front of an
// object larger than 512 bytes that holds pointers. A slab of pointerful
// records that filled slabBytes would land in the next class up (4 864
// bytes), so such a slab holds one header's worth less.
const mallocHeader = 8

// pageLen is the number of released records one page of the stack holds.
// A page is pointers, so like a slab of pointerful records it fills
// slabBytes less the header and stays in the 4 096-byte class.
const pageLen = (slabBytes - mallocHeader) / int(unsafe.Sizeof(unsafe.Pointer(nil)))

// FreeList is a LIFO of released records waiting to be taken again, and
// the slab allocator (Bonwick 1994) of records that are always released.
// It is not a sync.Pool: records are taken and released only on the
// engine's admission strand, and a deterministic simulator wants the same
// record back on the same step of every run.
//
// The stack is a list of 511-pointer pages, kept when emptied, so a list
// allocates its peak once and never copies it. New carves records from a
// 4 KiB slab of T, so a burst that takes thousands of records before the
// first comes back makes one object per slab, not one per record. A
// record carved from a slab keeps the whole slab alive, and a slab with a
// record on the list lives as long as the list: only a record whose owner
// always releases it may come from New. One that its owner may keep (and
// later drop) comes from Get and new, so that dropping it frees it.
type FreeList[T any] struct {
	pages [][]*T // the stack, pageLen records a page; n of them waiting
	n     int
	slab  []T // what is left of the slab New carves from; nil when used up
	per   int // records per slab; 0 until New makes the first slab
}

// Get returns the most recently released record, or nil when there is
// none and the caller has to make one.
func (l *FreeList[T]) Get() *T {
	if l.n == 0 {
		return nil
	}
	l.n--
	p := &l.pages[l.n/pageLen][l.n%pageLen]
	x := *p
	*p = nil
	return x
}

// New returns the most recently released record or, when none is
// waiting, a zeroed record carved from the list's slab, which it makes
// when the last one is used up.
func (l *FreeList[T]) New() *T {
	if x := l.Get(); x != nil {
		return x
	}
	if l.slab == nil {
		if l.per == 0 {
			l.per = perSlab[T]()
		}
		l.slab = make([]T, l.per)
	}
	x := &l.slab[0]
	if l.slab = l.slab[1:]; len(l.slab) == 0 {
		l.slab = nil
	}
	return x
}

// perSlab is how many records of T one slab holds: as many as fit in
// slabBytes, less the allocator's header when T holds pointers.
func perSlab[T any]() int {
	room := slabBytes
	if hasPointers(reflect.TypeFor[T]()) {
		room -= mallocHeader
	}
	return max(1, room/max(1, int(unsafe.Sizeof(*new(T)))))
}

// hasPointers reports whether a value of type t holds a pointer the
// garbage collector scans.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
		reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// Len reports how many released records are waiting.
func (l *FreeList[T]) Len() int { return l.n }

// Put releases x, which the caller has cleared, and reports whether x is
// dead: under QuarantinePools it is never handed out again and the caller
// marks it, otherwise it is kept for the next Get or New.
func (l *FreeList[T]) Put(x *T) (dead bool) {
	if QuarantinePools {
		return true
	}
	if l.n/pageLen == len(l.pages) {
		l.pages = append(l.pages, make([]*T, pageLen))
	}
	l.pages[l.n/pageLen][l.n%pageLen] = x
	l.n++
	return false
}

// appendDoubling appends x to s, doubling s's backing array when it is
// full. The tables that follow a machine's size (the far event heap, the
// idle coroutines) grow once, to their peak: append's growth for long
// slices (1.25×) copies such a table through about five times its final
// size, doubling through two.
func appendDoubling[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 4))
	}
	return append(s, x)
}
