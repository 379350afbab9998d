// Package trace records simulation activity — spans and instants on
// virtual time, attributed to process images — and exports it in the
// Chrome trace-event format (load via chrome://tracing or Perfetto) or
// as an aggregate summary. The caf runtime emits into a Recorder when
// tracing is enabled on the machine config; applications may add their
// own spans through the same API.
//
// oplife.go adds the operation-lifecycle layer on top: per-operation
// completion-stage records (the paper's Fig. 1 levels) linked across
// images as Chrome flow events, and blocked-interval records attributing
// parked virtual time to the operations that released it.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"caf2go/internal/sim"
)

// Event is one recorded trace event.
type Event struct {
	Name  string
	Cat   string
	Image int // attributed process image (Chrome pid)
	Tid   int // strand within the image (0 = main)
	Start sim.Time
	Dur   sim.Time // 0 for instants
	Inst  bool

	// Flow-event fields: FlowPhase is 's' (start), 't' (step), or 'f'
	// (end), binding this point into the flow identified by FlowID —
	// the rendered arrows that link an operation's initiation to its
	// remote delivery and completion. Zero FlowPhase means not a flow
	// event.
	FlowID    int64
	FlowPhase byte
}

// Recorder accumulates events up to a capacity. The zero value is a
// disabled recorder: all methods are cheap no-ops.
type Recorder struct {
	events Log[Event]
	// dropped counts events dropped at capacity, per event category —
	// a truncated trace says which kinds of activity it is blind to.
	// Categories are a handful of static strings: a drop scans a short
	// slice (equal static strings compare by pointer), not a map that
	// hashes the category of every event a full recorder is offered.
	dropped []catCount
	enabled bool
}

type catCount struct {
	cat string
	n   int
}

// NewRecorder returns a recorder holding at most capacity events
// (further events are dropped and counted per category in Dropped).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1 << 20
	}
	return &Recorder{events: NewLog[Event](capacity), enabled: true}
}

// Enabled reports whether the recorder accepts events.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled }

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.events.Len()
}

// Truncated reports whether any events were dropped at capacity.
func (r *Recorder) Truncated() bool { return r.DroppedTotal() > 0 }

// DroppedTotal returns the total number of events dropped at capacity.
func (r *Recorder) DroppedTotal() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, c := range r.dropped {
		n += c.n
	}
	return n
}

// Dropped returns a copy of the per-category dropped-event counts
// (nil when nothing was dropped).
func (r *Recorder) Dropped() map[string]int {
	if r == nil || len(r.dropped) == 0 {
		return nil
	}
	out := make(map[string]int, len(r.dropped))
	for _, c := range r.dropped {
		out[c.cat] = c.n
	}
	return out
}

// Admit reports whether an event of category cat would be kept and
// counts it as dropped when not. Every recording method asks before it
// builds its Event, and so may a call site whose event is expensive to
// build (a formatted name).
func (r *Recorder) Admit(cat string) bool {
	if !r.Enabled() {
		return false
	}
	if !r.events.Full() {
		return true
	}
	for i := range r.dropped {
		if r.dropped[i].cat == cat {
			r.dropped[i].n++
			return false
		}
	}
	r.dropped = append(r.dropped, catCount{cat, 1})
	return false
}

// Span records a duration event on an image.
func (r *Recorder) Span(image, tid int, name, cat string, start, dur sim.Time) {
	if r.Admit(cat) {
		r.events.Append(Event{Name: name, Cat: cat, Image: image, Tid: tid, Start: start, Dur: dur})
	}
}

// Instant records a point event on an image strand.
func (r *Recorder) Instant(image, tid int, name, cat string, at sim.Time) {
	if r.Admit(cat) {
		r.events.Append(Event{Name: name, Cat: cat, Image: image, Tid: tid, Start: at, Inst: true})
	}
}

// Flow records one point of a flow: phase 's' starts flow id on this
// strand, 't' steps it (e.g. remote delivery), 'f' ends it. Perfetto
// draws arrows through the phases, linking an async operation's
// initiation to its completion across images.
func (r *Recorder) Flow(image, tid int, name, cat string, at sim.Time, id int64, phase byte) {
	if r.Admit(cat) {
		r.events.Append(Event{Name: name, Cat: cat, Image: image, Tid: tid, Start: at,
			FlowID: id, FlowPhase: phase})
	}
}

// Events returns a copy of the recorded events.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events.Slice()
}

// chromeEvent is the Chrome trace-event JSON shape.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"` // microseconds
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	S    string  `json:"s,omitempty"`  // instant scope
	ID   string  `json:"id,omitempty"` // flow id
	BP   string  `json:"bp,omitempty"` // flow binding point
}

// WriteChromeTrace writes the events as a Chrome trace JSON array.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	out := make([]chromeEvent, 0, r.Len())
	for _, e := range r.Events() {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Cat,
			Ts:   float64(e.Start) / 1e3,
			Pid:  e.Image,
			Tid:  e.Tid,
		}
		switch {
		case e.FlowPhase != 0:
			ce.Ph = string(rune(e.FlowPhase))
			ce.ID = fmt.Sprintf("%d", e.FlowID)
			if e.FlowPhase != 's' {
				// Bind steps and ends to the enclosing slice (Perfetto
				// renders the arrow into it) rather than the next one.
				ce.BP = "e"
			}
		case e.Inst:
			ce.Ph = "i"
			ce.S = "p"
		default:
			ce.Ph = "X"
			ce.Dur = float64(e.Dur) / 1e3
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// SummaryRow aggregates one event name.
type SummaryRow struct {
	Name  string
	Count int
	Total sim.Time
}

// Summary aggregates events by name, sorted by total duration
// descending (instants sort by count). Flow points are bookkeeping for
// the Chrome export, not activity, and are excluded.
func (r *Recorder) Summary() []SummaryRow {
	agg := make(map[string]*SummaryRow)
	for _, e := range r.Events() {
		if e.FlowPhase != 0 {
			continue
		}
		row, ok := agg[e.Name]
		if !ok {
			row = &SummaryRow{Name: e.Name}
			agg[e.Name] = row
		}
		row.Count++
		row.Total += e.Dur
	}
	out := make([]SummaryRow, 0, len(agg))
	for _, row := range agg {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WriteSummary prints the aggregate table, with the per-category
// dropped-event accounting when the capacity truncated the trace.
func (r *Recorder) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "%-32s %10s %14s\n", "event", "count", "total vtime")
	for _, row := range r.Summary() {
		fmt.Fprintf(w, "%-32s %10d %14s\n", row.Name, row.Count, row.Total)
	}
	if d := r.Dropped(); d != nil {
		cats := make([]string, 0, len(d))
		for c := range d {
			cats = append(cats, c)
		}
		sort.Strings(cats)
		fmt.Fprintf(w, "(trace truncated at capacity; dropped:")
		for _, c := range cats {
			fmt.Fprintf(w, " %s=%d", c, d[c])
		}
		fmt.Fprintln(w, ")")
	}
}
