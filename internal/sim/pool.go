package sim

import "slices"

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

// FreeList is a LIFO of released records waiting to be taken again. It
// is a plain slice, not a sync.Pool: records are taken and released only
// on the engine's admission strand, and a deterministic simulator wants
// the same record back on the same step of every run.
type FreeList[T any] struct {
	free []*T
}

// Get returns the most recently released record, or nil when there is
// none and the caller has to make one.
func (l *FreeList[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Len reports how many released records are waiting.
func (l *FreeList[T]) Len() int { return len(l.free) }

// Put releases x, which the caller has cleared, and reports whether x is
// dead: under QuarantinePools it is never handed out again and the caller
// marks it, otherwise it is kept for the next Get.
func (l *FreeList[T]) Put(x *T) (dead bool) {
	if QuarantinePools {
		return true
	}
	l.free = appendDoubling(l.free, x)
	return false
}

// appendDoubling appends x to s, doubling s's backing array when it is
// full. The tables that follow a machine's size (the event heap, the free
// lists, the idle coroutines) grow once, to their peak: append's growth
// for long slices (1.25×) copies such a table through about five times
// its final size, doubling through two.
func appendDoubling[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 4))
	}
	return append(s, x)
}
