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
	"reflect"
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

// TestObservabilityModesAgree: the op log is shared by the lifecycle
// tracker and the request-path tracker, so switching one of them off must
// not move what the other exports. On both golden inputs, at the golden
// capacity (which truncates) and at one that does not, a PathTracing-only
// run exports the all-on run's paths, and a TraceCapacity-only run its
// ops, blocks, finish rounds, drop counts, recorder events and Chrome
// bytes.
func TestObservabilityModesAgree(t *testing.T) {
	cases := []struct {
		name     string
		cfg      caf.Config
		opts     workloads.ServiceOpts
		truncate int
	}{
		{"kv-shipping", caf.Config{Images: 8, Seed: 7, Fabric: caf.FabricConfig{Coalescing: caf.Coalescing{MaxMsgs: 4}}},
			workloads.ServiceOpts{Servers: 4, Requests: 120, Rate: 2_000_000, WriteFrac: 0.3, Shipping: true}, 200},
		{"kv-locks", caf.Config{Images: 6, Seed: 11},
			workloads.ServiceOpts{Servers: 2, Requests: 60, Rate: 1_000_000, WriteFrac: 0.5}, 64},
	}
	run := func(t *testing.T, cfg caf.Config, opts workloads.ServiceOpts) *caf.Machine {
		t.Helper()
		var m *caf.Machine
		if _, err := workloads.KVService(cfg, opts, workloads.CaptureMachine(&m)); err != nil {
			t.Fatal(err)
		}
		return m
	}
	chrome := func(t *testing.T, m *caf.Machine) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := m.Trace().WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, tc := range cases {
		pathsOnly := tc.cfg
		pathsOnly.PathTracing = true
		paths := run(t, pathsOnly, tc.opts).Profile().Paths
		if paths == nil || len(paths.Reqs) == 0 {
			t.Fatalf("%s: a PathTracing-only run exported no paths", tc.name)
		}
		for _, capacity := range []int{tc.truncate, 1 << 16} {
			t.Run(fmt.Sprintf("%s/capacity=%d", tc.name, capacity), func(t *testing.T) {
				allCfg, traceCfg := tc.cfg, tc.cfg
				allCfg.Metrics, allCfg.PathTracing, allCfg.TraceCapacity = true, true, capacity
				traceCfg.TraceCapacity = capacity
				all, traced := run(t, allCfg, tc.opts), run(t, traceCfg, tc.opts)
				ap, tp := all.Profile(), traced.Profile()
				if (capacity == tc.truncate) != (ap.Dropped != nil) {
					t.Fatalf("capacity %d: dropped %v", capacity, ap.Dropped)
				}
				if !reflect.DeepEqual(ap.Paths, paths) {
					t.Error("the PathTracing-only run's paths differ from the all-on run's")
				}
				for _, c := range []struct {
					what      string
					all, only any
				}{
					{"ops", ap.Ops, tp.Ops},
					{"blocks", ap.Blocks, tp.Blocks},
					{"finish rounds", ap.Finishes, tp.Finishes},
					{"dropped", ap.Dropped, tp.Dropped},
					{"recorder events", all.Trace().Events(), traced.Trace().Events()},
					{"Chrome trace", chrome(t, all), chrome(t, traced)},
				} {
					if !reflect.DeepEqual(c.all, c.only) {
						t.Errorf("the TraceCapacity-only run's %s differ from the all-on run's", c.what)
					}
				}
			})
		}
	}
}
