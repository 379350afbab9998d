package caf_test

import (
	"runtime"
	"testing"

	caf "caf2go"
	"caf2go/examples/workloads"
	"caf2go/internal/load"
	"caf2go/internal/sim"
)

// The KV service in the benchmark's kv-shipping shape, shortened: 32
// images, 16 shard servers, 100 k req/s offered per server, a 50/50
// read/write mix by function shipping. Objects and bytes per request,
// the arrivals and machine included, are pinned at what the run
// allocates with the arrivals streamed as the clients take them and the
// pending requests in a ring, slept through between arrivals, with a
// spawn's record recycled, and with each request and its reply one
// record from the run's one free list, plus 5 % (4.15 objects and 440 B
// while every spawn kept its own record, 2.06 and 186 B while the request
// and the reply were closures, 0.058 and 65 B while the whole schedule
// was generated before the run, 0.049 and 23.9 B while each client had a
// free list of its own).
func TestPoolKVShippingBytesPerRequest(t *testing.T) {
	objects, bytes := kvPerRequest(t, caf.Config{Images: 32, Seed: 1})
	if limit := 0.046 * 1.05; objects > limit {
		t.Errorf("%.3f objects per request, want ≤ %.3f", objects, limit)
	}
	if limit := 17.7 * 1.05; bytes > limit {
		t.Errorf("%.1f B per request, want ≤ %.1f", bytes, limit)
	}
}

// TestPoolKVTracedBytesPerRequest is its twin with every observability
// hook on, the benchmark's kv-traced shape: metrics, a 65 536-record trace
// ring with lifecycles, and request paths. Bytes per request are pinned at
// what the run allocates with pointer-free op, transition and request
// records (a 64-byte op record, a 12-byte transition, a 112-byte request
// state), a spawn's record recycled, a request and its reply one
// record from the run's one free list and the arrivals streamed, plus
// 5 % (4.10 objects and 904 B while every spawn kept its own, 2.10 and
// 649 B while the request and the reply were closures, 0.100 and 529 B
// while the whole schedule was generated before the run, 0.092 and 487 B
// while each client had a free list of its own).
func TestPoolKVTracedBytesPerRequest(t *testing.T) {
	objects, bytes := kvPerRequest(t, caf.Config{Images: 32, Seed: 1,
		Metrics: true, TraceCapacity: 1 << 16, PathTracing: true})
	if limit := 0.088 * 1.05; objects > limit {
		t.Errorf("%.3f objects per request, want ≤ %.3f", objects, limit)
	}
	if limit := 480.2 * 1.05; bytes > limit {
		t.Errorf("%.1f B per request, want ≤ %.1f", bytes, limit)
	}
}

// kvPerRequest runs the shortened KV service on cfg twice and returns
// the objects and bytes the second run allocated per request.
func kvPerRequest(t *testing.T, cfg caf.Config) (objects, bytes float64) {
	t.Helper()
	if sim.GoRace || sim.QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
	const servers, requests = 16, 20_000
	run := func() {
		var slo load.SLO
		_, err := workloads.KVService(cfg, workloads.ServiceOpts{
			Servers: servers, Requests: requests, Rate: 100_000 * servers, Keys: 16 * servers,
			WriteFrac: 0.5, Shipping: true, SLOOut: &slo,
		})
		if err != nil {
			t.Fatal(err)
		}
		if slo.Completed != requests {
			t.Fatalf("%d of %d requests completed", slo.Completed, requests)
		}
	}
	run() // warm-up
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	objects = float64(after.Mallocs-before.Mallocs) / requests
	bytes = float64(after.TotalAlloc-before.TotalAlloc) / requests
	t.Logf("%.3f objects, %.1f B per request", objects, bytes)
	return objects, bytes
}
