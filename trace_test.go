package caf_test

// Tests for execution tracing integrated in the caf runtime.

import (
	"bytes"
	"encoding/json"
	"testing"

	caf "caf2go"
)

func TestTracingDisabledByDefault(t *testing.T) {
	m := caf.NewMachine(caf.Config{Images: 2, Seed: 1})
	m.Launch(func(img *caf.Image) {
		img.Finish(nil, func() {
			img.Spawn((img.Rank()+1)%2, func(r *caf.Image) {})
		})
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if m.Trace() != nil {
		t.Error("tracer allocated although disabled")
	}
}

func TestTracingRecordsRuntimeEvents(t *testing.T) {
	m := caf.NewMachine(caf.Config{Images: 4, Seed: 1, TraceCapacity: 10000})
	m.Launch(func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 4)
		img.Finish(nil, func() {
			img.Spawn((img.Rank()+1)%4, func(r *caf.Image) {
				r.Compute(10 * caf.Microsecond)
			})
			src := []int64{1}
			caf.CopyAsync(img, ca.Sec((img.Rank()+2)%4, 0, 1), caf.Local(src))
		})
		img.Cofence(caf.AllowNone, caf.AllowNone)
		ev := img.NewEvent()
		img.EventNotify(ev)
		img.EventWait(ev)
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	tr := m.Trace()
	if tr == nil || tr.Len() == 0 {
		t.Fatal("no trace recorded")
	}
	want := map[string]int{
		"finish": 4, "finish-detect": 4, "spawn": 4, "spawn-exec": 4,
		"copy_async": 4, "cofence": 4, "event_wait": 4,
	}
	got := map[string]int{}
	for _, e := range tr.Events() {
		if e.FlowPhase == 0 {
			got[e.Name]++
		}
	}
	for name, count := range want {
		if got[name] != count {
			t.Errorf("event %q count = %d, want %d (all: %v)", name, got[name], count, got)
		}
	}
	// The Chrome export must be valid JSON with one entry per event.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(events) != tr.Len() {
		t.Errorf("exported %d events, recorded %d", len(events), tr.Len())
	}
}

func TestTracingSpansHaveSaneDurations(t *testing.T) {
	m := caf.NewMachine(caf.Config{Images: 2, Seed: 1, TraceCapacity: 1000})
	m.Launch(func(img *caf.Image) {
		ca := caf.NewCoarray[byte](img, nil, 1024)
		if img.Rank() == 0 {
			src := make([]byte, 1024)
			caf.CopyAsync(img, ca.At(1), caf.Local(src))
			img.Cofence(caf.AllowNone, caf.AllowNone)
		}
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Trace().Events() {
		if e.Dur < 0 {
			t.Errorf("negative duration on %q: %v", e.Name, e.Dur)
		}
		if e.Name == "cofence" && e.Dur == 0 {
			t.Error("cofence over a pending copy recorded zero wait")
		}
	}
}
