package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestNilRegistryIsInert pins the disabled path: a nil registry hands out
// nil instruments and every method no-ops.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "")
	c.Add(0, 1)
	c.AddLink(0, 1, 2)
	r.Link("l", "", "lb", "").Add(0, 1, 2)
	g.Set(0, 3)
	g.SetMax(0, 4)
	h.Observe(0, 5)
	s := r.Snapshot()
	if len(s.Families) != 0 {
		t.Fatalf("nil registry snapshot has %d families", len(s.Families))
	}
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry exposition non-empty: %q", buf.String())
	}
}

// TestDeterministicExport feeds two registries the same updates in
// different orders and demands byte-identical exports.
func TestDeterministicExport(t *testing.T) {
	feed := func(r *Registry, reverse bool) {
		msgs := r.Counter("caf_test_msgs_total", "messages")
		q := r.Gauge("caf_test_q_peak", "queue peak")
		lat := r.Histogram("caf_test_lat_ns", "latency")
		order := []int{0, 1, 2, 3}
		if reverse {
			order = []int{3, 2, 1, 0}
		}
		for _, i := range order {
			msgs.Add(i, int64(i+1))
			msgs.AddLink(i, (i+1)%4, 10)
			q.SetMax(i, int64(100-i))
			q.SetMax(i, int64(50-i)) // lower: must not stick
			lat.Observe(i, int64(1<<uint(i)))
		}
	}
	a, b := New(), New()
	feed(a, false)
	feed(b, true)

	var ja, jb, pa, pb bytes.Buffer
	if err := a.Snapshot().WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot().WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := a.Snapshot().WritePrometheus(&pa); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot().WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Errorf("JSON export differs across insertion orders:\n%s\nvs\n%s", ja.String(), jb.String())
	}
	if !bytes.Equal(pa.Bytes(), pb.Bytes()) {
		t.Errorf("Prometheus export differs across insertion orders:\n%s\nvs\n%s", pa.String(), pb.String())
	}
}

// TestHistogramBuckets pins the power-of-two bucketing.
func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("h", "")
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, math.MaxInt64} {
		h.Observe(5, v)
	}
	s := r.Snapshot()
	if len(s.Families) != 1 || len(s.Families[0].Hists) != 1 {
		t.Fatalf("unexpected snapshot shape: %+v", s)
	}
	hs := s.Families[0].Hists[0]
	if hs.Count != 7 {
		t.Fatalf("count = %d, want 7", hs.Count)
	}
	want := map[int64]int64{
		0:             1, // v=0
		1:             1, // v=1
		3:             2, // v=2,3
		7:             1, // v=4
		1023:          1, // v=1000
		math.MaxInt64: 1, // v=MaxInt64
	}
	for _, b := range hs.Buckets {
		if want[b.Le] != b.Count {
			t.Errorf("bucket le=%d count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
		delete(want, b.Le)
	}
	if len(want) != 0 {
		t.Errorf("missing buckets: %v", want)
	}
}

// TestPrometheusShape sanity-checks label rendering and the cumulative
// histogram contract.
func TestPrometheusShape(t *testing.T) {
	r := New()
	r.Counter("caf_c_total", "help text").AddLink(0, 3, 7)
	h := r.Histogram("caf_h", "")
	h.Observe(1, 2)
	h.Observe(1, 900)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP caf_c_total help text",
		"# TYPE caf_c_total counter",
		`caf_c_total{image="0",peer="3"} 7`,
		`caf_h_bucket{image="1",le="3"} 1`,
		`caf_h_bucket{image="1",le="1023"} 2`,
		`caf_h_bucket{image="1",le="+Inf"} 2`,
		`caf_h_sum{image="1"} 902`,
		`caf_h_count{image="1"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
