package caf_test

// Byte-identity harness for the observability exports. The files under
// testdata/ were generated at cd5f78e, the commit before the logs moved
// to chunked storage (PR 24), and are the contract any later change to
// the record layouts is judged by: the profile JSON, the Chrome trace,
// the Prometheus text and Report.TraceDropped of two seeded kv-shaped
// programs, both with a trace capacity small enough to truncate.
//
//	go test -run TestProfileGoldens -update .

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	caf "caf2go"
	"caf2go/examples/workloads"
)

var updateGoldens = flag.Bool("update", false, "rewrite the profile golden files under testdata/")

func TestProfileGoldens(t *testing.T) {
	cases := []struct {
		name string
		cfg  caf.Config
		opts workloads.ServiceOpts
	}{
		// Request + reply by function shipping through coalescing buffers:
		// the flush observer's labels (some kept, most dropped), spans per
		// request, and a recorder and an op log that both fill up.
		{"kv-shipping", caf.Config{Images: 8, Seed: 7, Metrics: true, TraceCapacity: 200, PathTracing: true,
			Fabric: caf.FabricConfig{Coalescing: caf.Coalescing{MaxMsgs: 4}}},
			workloads.ServiceOpts{Servers: 4, Requests: 120, Rate: 2_000_000, WriteFrac: 0.3, Shipping: true}},
		// Lock + get/put round trips from a worker proc per request: every
		// request parks, so the block log and its releaser fold fill too.
		{"kv-locks", caf.Config{Images: 6, Seed: 11, Metrics: true, TraceCapacity: 64, PathTracing: true},
			workloads.ServiceOpts{Servers: 2, Requests: 60, Rate: 1_000_000, WriteFrac: 0.5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m *caf.Machine
			res, err := workloads.KVService(tc.cfg, tc.opts, workloads.CaptureMachine(&m))
			if err != nil {
				t.Fatal(err)
			}
			var profile, chrome, prom, dropped bytes.Buffer
			if err := m.WriteProfile(&profile); err != nil {
				t.Fatal(err)
			}
			if err := m.Trace().WriteChromeTrace(&chrome); err != nil {
				t.Fatal(err)
			}
			if err := m.Metrics().Snapshot().WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			cats := make([]string, 0, len(res.Report.TraceDropped))
			for c := range res.Report.TraceDropped {
				cats = append(cats, c)
			}
			sort.Strings(cats)
			for _, c := range cats {
				fmt.Fprintf(&dropped, "%s %d\n", c, res.Report.TraceDropped[c])
			}
			if dropped.Len() == 0 {
				t.Fatal("nothing was dropped: the capacity no longer truncates this run")
			}
			for ext, got := range map[string]*bytes.Buffer{
				"profile.json": &profile, "chrome.json": &chrome, "prom": &prom, "dropped.txt": &dropped,
			} {
				file := filepath.Join("testdata", tc.name+"."+ext)
				if *updateGoldens {
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
					t.Fatalf("missing golden (run with -update to create): %v", err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("%s differs from the committed export (%d bytes, want %d)", file, got.Len(), len(want))
				}
			}
		})
	}
}
