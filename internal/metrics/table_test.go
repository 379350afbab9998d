package metrics

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"caf2go/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/export.json and testdata/export.prom")

// TestExportGolden: the exporters' bytes for a registry whose samples
// were first touched in an order that is nothing like the export order,
// some of them with a zero that must still export. The expectations were
// written by the map-backed registry this one replaces.
func TestExportGolden(t *testing.T) {
	r := New()
	link := r.Counter("caf_test_link_bytes_total", "bytes per link")
	plain := r.Counter("caf_test_ops_total", "")
	peak := r.Gauge("caf_test_q_peak", "queue peak")
	level := r.Gauge("caf_test_level", "a level that may be negative")
	lat := r.Histogram("caf_test_lat_ns", "latency")
	r.Counter("caf_test_untouched_total", "a family nobody touched still has its header")

	for _, p := range [][2]int{{5, 2}, {0, 7}, {5, 0}, {3, 3}, {0, 1}, {5, NoPeer}, {0, 7}, {5, 1}, {9, 4}} {
		link.AddLink(p[0], p[1], int64(100*p[0]+p[1]))
	}
	link.AddLink(2, 6, 0) // touched with zero: exports
	plain.Add(4, 0)       // likewise
	plain.Add(1, 3)
	plain.Add(4, 2)
	peak.SetMax(3, 0)  // no new peak over an absent sample: does not exist
	peak.SetMax(2, -5) // nor this
	peak.SetMax(6, 9)
	peak.SetMax(6, 4)
	peak.SetMax(1, 1)
	level.Set(8, -3)
	level.Set(0, 0)
	level.SetMax(8, -1) // a present sample does take a higher negative
	for _, v := range []int64{900, 0, 3, 1 << 40} {
		lat.Observe(7, v)
	}
	lat.ObserveTime(2, 5*sim.Microsecond)

	var js, prom bytes.Buffer
	if err := r.Snapshot().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*bytes.Buffer{"export.json": &js, "export.prom": &prom} {
		file := filepath.Join("testdata", name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from the committed expectation:\n%s", file, got.String())
		}
	}
}

// TestDensePeerRow: a row with a cell for every peer of a 256-image
// all-to-all, touched in random order, holds each link's own total and
// exports sorted by peer.
func TestDensePeerRow(t *testing.T) {
	const images = 256
	r := New()
	c := r.Counter("link", "")
	rng := rand.New(rand.NewSource(24))
	want := make(map[[2]int]int64)
	for i := 0; i < 100_000; i++ {
		src, dst := rng.Intn(3), rng.Intn(images)
		c.AddLink(src, dst, int64(dst+1))
		want[[2]int{src, dst}] += int64(dst + 1)
		if i%7 == 0 {
			c.Add(src, 1) // the NoPeer cell of the same row, between link hits
			want[[2]int{src, NoPeer}]++
		}
	}
	samples := r.Snapshot().Families[0].Samples
	if len(samples) != len(want) || len(want) != 3*(images+1) {
		t.Fatalf("%d samples for %d touched links", len(samples), len(want))
	}
	for i, s := range samples {
		if s.Value != want[[2]int{s.Image, s.Peer}] {
			t.Fatalf("link (%d,%d) = %d, want %d", s.Image, s.Peer, s.Value, want[[2]int{s.Image, s.Peer}])
		}
		if i > 0 {
			if p := samples[i-1]; p.Image > s.Image || p.Image == s.Image && p.Peer >= s.Peer {
				t.Fatalf("samples %d, %d out of (image, peer) order: %+v %+v", i-1, i, p, s)
			}
		}
	}
}

// TestPoolTraceMetricsAllocs: updating a sample that exists allocates
// nothing, whichever cell of the row the previous update hit.
func TestPoolTraceMetricsAllocs(t *testing.T) {
	if sim.GoRace {
		t.Skip("the race detector's instrumentation allocates")
	}
	r := New()
	link, lat, peak := r.Counter("link", ""), r.Histogram("lat", ""), r.Gauge("peak", "")
	pair := r.Link("msgs", "", "bytes", "")
	peer := 0
	touch := func() {
		peer = (peer + 5) % 16
		link.AddLink(1, peer, 24)
		pair.Add(1, peer, 24)
		link.Add(1, 1)
		lat.Observe(peer, int64(peer)<<10)
		peak.SetMax(2, int64(peer))
	}
	for i := 0; i < 16; i++ {
		touch() // first touches
	}
	if n := testing.AllocsPerRun(10000, touch); n != 0 {
		t.Errorf("AddLink + Link.Add + Add + Observe + SetMax on touched samples: %v objects per call, want 0", n)
	}
}

// TestLinkMatchesTwoCounters: a link instrument exports, under its two
// names, what a packet counter and a byte counter fed the same packets
// export.
func TestLinkMatchesTwoCounters(t *testing.T) {
	a, b := New(), New()
	link := a.Link("caf_test_msgs_total", "packets", "caf_test_bytes_total", "bytes")
	msgs, byts := b.Counter("caf_test_msgs_total", "packets"), b.Counter("caf_test_bytes_total", "bytes")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		src, dst, n := rng.Intn(5), rng.Intn(9)-1, int64(rng.Intn(600))
		link.Add(src, dst, n)
		msgs.AddLink(src, dst, 1)
		byts.AddLink(src, dst, n)
	}
	var ja, jb, pa, pb bytes.Buffer
	for _, err := range []error{a.Snapshot().WriteJSON(&ja), b.Snapshot().WriteJSON(&jb),
		a.Snapshot().WritePrometheus(&pa), b.Snapshot().WritePrometheus(&pb)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) || !bytes.Equal(pa.Bytes(), pb.Bytes()) {
		t.Errorf("link export differs from two counters':\n%s\nvs\n%s", pa.String(), pb.String())
	}
}
