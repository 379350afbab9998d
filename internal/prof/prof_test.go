package prof

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"caf2go/internal/sim"
	"caf2go/internal/trace"
)

func stamped(id int64, kind string, img, peer int, created sim.Time, ts ...sim.Time) trace.OpRecord {
	op := trace.OpRecord{ID: id, Kind: kind, Img: img, Peer: peer, Created: created}
	for s := range op.T {
		op.T[s] = -1
		if s < len(ts) {
			op.T[s] = ts[s]
		}
	}
	return op
}

func TestStageLatencies(t *testing.T) {
	p := &Profile{
		Images: 2,
		Ops: []trace.OpRecord{
			stamped(1, "copy", 0, 1, 100, 100, 150, 300, 1300),
			stamped(2, "copy", 0, 1, 100, 110, 160, 310, 1310),
			stamped(3, "copy", 1, 0, 0, 0, 50), // never reached local-op
		},
	}
	lats := StageLatencies(p)
	if len(lats) != int(trace.NumStages) {
		t.Fatalf("got %d rows, want %d", len(lats), trace.NumStages)
	}
	ld := lats[trace.StageLocalData]
	if ld.Stage != trace.StageLocalData || ld.Count != 3 || ld.Min != 50 || ld.Max != 50 {
		t.Errorf("local-data row wrong: %+v", ld)
	}
	lo := lats[trace.StageLocalOp]
	if lo.Count != 2 || lo.Unreached != 1 || lo.Mean() != 150 {
		t.Errorf("local-op row wrong: %+v", lo)
	}
	gl := lats[trace.StageGlobal]
	if gl.Count != 2 || gl.Unreached != 1 || gl.Min != 1000 || gl.Max != 1000 {
		t.Errorf("global row wrong: %+v", gl)
	}
	if len(ld.Buckets) == 0 {
		t.Error("no histogram buckets")
	}
}

func TestStageLatencyClampsOutOfOrderStamps(t *testing.T) {
	// A put's global completion is witnessed at the destination before
	// the sender's local-op ack: T[Global] < T[LocalOp].
	p := &Profile{Images: 2, Ops: []trace.OpRecord{
		stamped(1, "put", 0, 1, 0, 0, 10, 500, 400),
	}}
	for _, sl := range StageLatencies(p) {
		if sl.Min < 0 || sl.Max < 0 {
			t.Errorf("%s/%v: negative latency min=%d max=%d", sl.Kind, sl.Stage, sl.Min, sl.Max)
		}
		if sl.Stage == trace.StageGlobal && (sl.Count != 1 || sl.Max != 0) {
			t.Errorf("global stage should clamp to 0: %+v", sl)
		}
	}
}

func TestBlockersAndAttribution(t *testing.T) {
	p := &Profile{
		Images: 2,
		Ops: []trace.OpRecord{
			stamped(1, "copy", 0, 1, 0, 0, 10, 20, 30),
			stamped(2, "spawn", 0, 1, 0, 0, 5, 15, 25),
		},
		Blocks: []trace.BlockRecord{
			{Img: 0, Tid: 0, Prim: "finish", Start: 0, Dur: 100, Releasers: []int64{1, 2}, ReleaserCount: 2},
			{Img: 1, Tid: 0, Prim: "finish", Start: 0, Dur: 60, Releasers: []int64{1}, ReleaserCount: 1},
			{Img: 1, Tid: 0, Prim: "cofence", Start: 200, Dur: 40},
		},
	}
	rows := Blockers(p, 5)
	if len(rows) != 2 || rows[0].Prim != "finish" {
		t.Fatalf("rows wrong: %+v", rows)
	}
	f := rows[0]
	if f.Count != 2 || f.Total != 160 || f.Attributed != 160 {
		t.Errorf("finish row wrong: %+v", f)
	}
	// Op 1 gets 100/2 + 60 = 110; op 2 gets 50.
	if len(f.Top) != 2 || f.Top[0].Op != 1 || f.Top[0].Share != 110 || f.Top[1].Share != 50 {
		t.Errorf("top blockers wrong: %+v", f.Top)
	}
	if f.Top[0].Kind != "copy" {
		t.Errorf("op kind not resolved: %+v", f.Top[0])
	}
	if got, want := AttributionRatio(p), 0.8; got != want {
		t.Errorf("attribution %v, want %v", got, want)
	}
}

func TestUtilization(t *testing.T) {
	p := &Profile{
		Images:   2,
		Duration: 1000,
		Blocks: []trace.BlockRecord{
			{Img: 0, Tid: 0, Prim: "finish", Dur: 300},
			{Img: 0, Tid: 1, Prim: "lock", Dur: 50}, // handler strand
			{Img: 1, Tid: 0, Prim: "collective", Dur: 700},
		},
	}
	rows := Utilization(p)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Blocked != 350 || rows[0].MainBlocked != 300 || rows[0].Busy != 700 {
		t.Errorf("image 0 wrong: %+v", rows[0])
	}
	if rows[1].Busy != 300 || len(rows[1].ByPrim) != 1 || rows[1].ByPrim[0].Prim != "collective" {
		t.Errorf("image 1 wrong: %+v", rows[1])
	}
}

func TestFinishRounds(t *testing.T) {
	p := &Profile{Finishes: []trace.FinishRound{
		{Img: 0, Start: 0, End: 100, Rounds: 1, RoundAt: []sim.Time{100}},
		{Img: 1, Start: 0, End: 250, Rounds: 2, RoundAt: []sim.Time{100, 250}},
	}}
	s := FinishRounds(p)
	if s.Epochs != 2 || s.MaxRounds != 2 || s.MaxRoundDur != 150 {
		t.Errorf("summary wrong: %+v", s)
	}
	if !reflect.DeepEqual(s.RoundsHist, []int{0, 1, 1}) {
		t.Errorf("hist wrong: %v", s.RoundsHist)
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	p := &Profile{
		Images:   2,
		Duration: 1234,
		Ops:      []trace.OpRecord{stamped(1, "copy", 0, 1, 0, 0, 1, 2, 3)},
		Blocks:   []trace.BlockRecord{{Img: 0, Prim: "finish", Dur: 10, Releasers: []int64{1}, ReleaserCount: 1}},
		Finishes: []trace.FinishRound{{Img: 0, Rounds: 1, RoundAt: []sim.Time{5}}},
		Dropped:  map[string]int{"oplife": 3},
	}
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Errorf("roundtrip diverged:\nwant %+v\ngot  %+v", p, got)
	}
	if _, err := Read(strings.NewReader("{nope")); err == nil {
		t.Error("malformed profile did not error")
	}
}

// TestReadRejectsSpanCycles: a span whose parent is itself or a later
// span could be its own ancestor; Read names the request and the span
// instead of handing renderers a tree without a bottom.
func TestReadRejectsSpanCycles(t *testing.T) {
	in := `{"Images": 1, "Paths": {"Reqs": [{"Seq": 3, "Done": -1, "Spans": [{"ID": 1, "Parent": 0}, {"ID": 1, "Parent": 1}]}]}}`
	_, err := Read(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "request 3: span 1 has parent 1") {
		t.Fatalf("Read = %v, want a rejection naming request 3 and span 1", err)
	}
	ok := `{"Images": 1, "Paths": {"Reqs": [{"Seq": 3, "Done": -1, "Spans": [{"ID": 1, "Parent": 0}, {"ID": 2, "Parent": 1}]}]}}`
	if _, err := Read(strings.NewReader(ok)); err != nil {
		t.Fatalf("Read rejected a well-formed span tree: %v", err)
	}
}

func TestRenderSections(t *testing.T) {
	p := &Profile{
		Images:   1,
		Duration: 1000,
		Ops:      []trace.OpRecord{stamped(1, "copy", 0, 0, 0, 0, 1, 2, 3)},
		Blocks:   []trace.BlockRecord{{Img: 0, Prim: "finish", Dur: 10, Releasers: []int64{1}, ReleaserCount: 1}},
		Finishes: []trace.FinishRound{{Img: 0, Rounds: 1, RoundAt: []sim.Time{5}}},
		Dropped:  map[string]int{"oplife": 3},
	}
	var out bytes.Buffer
	Render(&out, p, RenderOpts{})
	s := out.String()
	for _, want := range []string{
		"completion-stage latencies",
		"blocked time by primitive",
		"per-image utilization",
		"finish termination detection",
		"WARNING: capture truncated",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}
