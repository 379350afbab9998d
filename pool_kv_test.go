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
// the schedule and machine included, are pinned at what the run
// allocates with the schedule merged, read in place by every client and
// slept through between arrivals, and with a spawn in 128 bytes, plus 5 %.
func TestPoolKVShippingBytesPerRequest(t *testing.T) {
	if sim.GoRace || sim.QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
	const images, servers, requests = 32, 16, 20_000
	run := func() {
		var slo load.SLO
		_, err := workloads.KVService(caf.Config{Images: images, Seed: 1}, workloads.ServiceOpts{
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
	objects := float64(after.Mallocs-before.Mallocs) / requests
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / requests
	t.Logf("%.3f objects, %.1f B per request", objects, bytes)
	if limit := 4.15 * 1.05; objects > limit {
		t.Errorf("%.3f objects per request, want ≤ %.3f", objects, limit)
	}
	if limit := 440.0 * 1.05; bytes > limit {
		t.Errorf("%.1f B per request, want ≤ %.1f", bytes, limit)
	}
}
