package trace

// Records per chunk of a Log: a power of two, so At is a shift and a mask.
const (
	logShift = 10
	logChunk = 1 << logShift
)

// Log is an append-only sequence of records in fixed-size chunks behind a
// slice of chunk headers: the storage of every observability log. A
// record is written once and never moved, so the pointers Append and At
// return stay valid and stages are stamped in place, and what the log
// allocates is what it keeps. The zero value is an empty, unbounded log.
type Log[T any] struct {
	chunks [][]T
	n      int
	limit  int // Append stops at this many records; 0 = unbounded
}

// NewLog returns a log that keeps its first limit records (all if ≤ 0).
func NewLog[T any](limit int) Log[T] { return Log[T]{limit: max(limit, 0)} }

// Len returns the number of records kept.
func (l *Log[T]) Len() int { return l.n }

// Full reports whether the log is at its limit: the next Append is a drop.
func (l *Log[T]) Full() bool { return l.limit > 0 && l.n >= l.limit }

// Append stores v as record Len() and returns its address, or nil when
// the log is full. A chunk is no larger than what the limit still admits,
// so a log bounded below one chunk allocates only its limit.
func (l *Log[T]) Append(v T) *T {
	if l.Full() {
		return nil
	}
	c := l.n >> logShift
	if c == len(l.chunks) {
		size := logChunk
		if l.limit > 0 {
			size = min(size, l.limit-l.n)
		}
		l.chunks = append(l.chunks, make([]T, 0, size))
	}
	ch := append(l.chunks[c], v) // within capacity: the chunk never moves
	l.chunks[c] = ch
	l.n++
	return &ch[len(ch)-1]
}

// At returns the address of record i; it panics when i is out of range.
func (l *Log[T]) At(i int) *T { return &l.chunks[i>>logShift][i&(logChunk-1)] }

// Slice copies the records into one new slice (nil when empty): for
// exporters.
func (l *Log[T]) Slice() []T {
	if l.n == 0 {
		return nil
	}
	out := make([]T, 0, l.n)
	for _, ch := range l.chunks {
		out = append(out, ch...)
	}
	return out
}
