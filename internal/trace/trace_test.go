package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"caf2go/internal/sim"
)

func TestNilAndDisabledRecorderNoops(t *testing.T) {
	var r *Recorder
	if r.Enabled() || r.Len() != 0 || Dropped(r, nil) != nil || r.Events() != nil {
		t.Error("nil recorder not inert")
	}
	var zero Recorder
	zero.Span(0, 0, "x", "c", 1, 2) // disabled zero value: must not record
	if zero.Len() != 0 {
		t.Error("zero-value recorder recorded")
	}
}

func TestCapacityTruncation(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Instant(0, 0, "e", "c", sim.Time(i))
	}
	r.Span(0, 0, "s", "other", 1, 1)
	if r.Len() != 2 {
		t.Errorf("len=%d", r.Len())
	}
	if d := Dropped(r, nil); len(d) != 2 || d["c"] != 3 || d["other"] != 1 {
		t.Errorf("dropped = %v, want c=3 other=1", d)
	}
}

func TestChromeTraceFormat(t *testing.T) {
	r := NewRecorder(10)
	r.Span(3, 7, "work", "app", 1500, 2500) // ns -> 1.5us start, 2.5us dur
	r.Instant(2, 0, "tick", "app", 4000)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(out) != 2 {
		t.Fatalf("events = %d", len(out))
	}
	span := out[0]
	if span["ph"] != "X" || span["ts"] != 1.5 || span["dur"] != 2.5 ||
		span["pid"] != float64(3) || span["tid"] != float64(7) {
		t.Errorf("span = %v", span)
	}
	inst := out[1]
	if inst["ph"] != "i" || inst["ts"] != 4.0 || inst["s"] != "p" {
		t.Errorf("instant = %v", inst)
	}
}
