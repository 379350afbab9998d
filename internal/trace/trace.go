// Package trace records simulation activity — spans and instants on
// virtual time, attributed to process images — and exports it in the
// Chrome trace-event format (load via chrome://tracing or Perfetto). The
// caf runtime emits into a Recorder when tracing is enabled on the
// machine config; applications may add their own spans through the same
// API.
//
// oplife.go adds the operation-lifecycle layer on top: one record per
// traced op with its completion-stage stamps (the paper's Fig. 1
// levels), exported across images as Chrome flow events, and
// blocked-interval records attributing parked virtual time to the
// operations that released it.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

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
	flows int32 // stored: the transitions logged before it

	// Flow-event fields: FlowPhase is 's' (start), 't' (step), or 'f'
	// (end), binding this point into the flow identified by FlowID —
	// the rendered arrows that link an operation's initiation to its
	// remote delivery and completion. Zero FlowPhase means not a flow
	// event.
	FlowID    int64
	FlowPhase byte
}

const flowCat = "oplife" // the flow points' category

// Recorder accumulates events up to a capacity. The zero value is a
// disabled recorder: all methods are cheap no-ops. The stream also holds
// a flow point per transition of the lifecycle tracker attached to it
// (NewLifecycle), built at export: a stored event keeps the count of
// transitions before it, so the two interleave as they were stamped and
// share the capacity.
type Recorder struct {
	events Log[Event]
	life   *Lifecycle // the flow points' source; nil when none
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

// flows returns the number of flow points offered to the stream.
func (l *Lifecycle) flows() int {
	if l == nil {
		return 0
	}
	return l.trans.Len()
}

// Len returns the number of recorded events, flow points included.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return min(r.events.Len()+r.life.flows(), r.events.limit)
}

// Admit reports whether an event of category cat would be kept and
// counts it as dropped when not. Every recording method asks before it
// builds its Event, and so may a call site whose event is expensive to
// build (a formatted name).
func (r *Recorder) Admit(cat string) bool {
	if !r.Enabled() {
		return false
	}
	if r.events.Len()+r.life.flows() < r.events.limit {
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
		r.events.Append(Event{Name: name, Cat: cat, Image: image, Tid: tid, Start: start, Dur: dur,
			flows: int32(r.life.flows())})
	}
}

// Instant records a point event on an image strand.
func (r *Recorder) Instant(image, tid int, name, cat string, at sim.Time) {
	if r.Admit(cat) {
		r.events.Append(Event{Name: name, Cat: cat, Image: image, Tid: tid, Start: at, Inst: true,
			flows: int32(r.life.flows())})
	}
}

// flow returns transition i as its op's flow point: phase 's' starts
// the flow on the initiating strand, 't' steps it (e.g. remote
// delivery), 'f' ends it at global completion. Perfetto draws arrows
// through the phases, linking an async operation's initiation to its
// completion across images.
func (l *Lifecycle) flow(i int) Event {
	tr := l.trans.At(i)
	phase := byte('t')
	switch tr.stage {
	case StageInit:
		phase = 's'
	case StageGlobal:
		phase = 'f'
	}
	r := l.ops.recs.At(int(tr.op - 1))
	return Event{Name: l.ops.kinds[r.kind], Cat: flowCat, Image: int(tr.img),
		Start: r.t[tr.stage], FlowID: int64(tr.op), FlowPhase: phase}
}

// Events returns a copy of the recorded events, with the flow points in
// their places: an event goes before the transitions logged after it.
func (r *Recorder) Events() []Event {
	n := r.Len()
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	for i, f := 0, 0; len(out) < n; {
		if i < r.events.Len() && int(r.events.At(i).flows) <= f {
			e := *r.events.At(i)
			e.flows = 0
			out = append(out, e)
			i++
		} else {
			out = append(out, r.life.flow(f))
			f++
		}
	}
	return out
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
