package chaos

import (
	"reflect"
	"runtime"
	"testing"

	caf "caf2go"
	"caf2go/examples/workloads"
	"caf2go/internal/load"
)

// kvLoadOpts is the chaos KV scenario: 4 shard servers, 4 open-loop
// clients, 120 requests at 300k req/s with a 50/50 read/write mix.
func kvLoadOpts(shipping bool, slo *load.SLO) workloads.ServiceOpts {
	return workloads.ServiceOpts{
		Requests:  120,
		Rate:      300_000,
		WriteFrac: 0.5,
		Shipping:  shipping,
		SLOOut:    slo,
	}
}

// kvLoadCfg composes the KV scenario with a mid-traffic server crash:
// rank 1 (a shard owner) dies at 80µs — after the setup barrier, well
// inside the ~420µs serving window — and the detector declares it dead
// a few heartbeats later.
func kvLoadCfg(seed int64) caf.Config {
	return caf.Config{
		Images: 8,
		Seed:   seed,
		Fabric: caf.FabricConfig{Faults: &caf.FaultPlan{
			Seed:  seed,
			Crash: map[int]caf.Time{1: 80 * caf.Microsecond},
		}},
		FailureDetector: detectorOn(),
	}
}

// TestKVServiceCrashTypedErrors is the service-traffic crash
// acceptance row: with a shard server crashed mid-traffic, both KV
// protocols must settle *every* request — each lost request failing
// with a typed ImageFailedError blaming the dead rank — while the run
// terminates cleanly (no deadlock, no machine-level abort: failure is
// absorbed at request granularity). The variants differ in blast
// radius, and the sweep pins that too: function shipping keeps
// completing requests on surviving shards after the crash, while the
// lock protocol's reply chains may depend on the dead image, so all of
// its post-crash requests fail typed.
func TestKVServiceCrashTypedErrors(t *testing.T) {
	for _, shipping := range []bool{false, true} {
		name := "locks"
		if shipping {
			name = "shipping"
		}
		t.Run(name, func(t *testing.T) {
			var slo load.SLO
			res, err := workloads.KVService(kvLoadCfg(7), kvLoadOpts(shipping, &slo))
			if err != nil {
				t.Fatalf("crash run did not terminate cleanly: %v", err)
			}
			if slo.Completed+slo.Failed != slo.Requests {
				t.Fatalf("requests unsettled: done=%d fail=%d of %d", slo.Completed, slo.Failed, slo.Requests)
			}
			if slo.Failed == 0 {
				t.Fatal("crash lost no requests — scenario not exercising the failure path")
			}
			if slo.Completed == 0 {
				t.Fatal("no request completed — service never came up")
			}
			for rank, n := range slo.LostTo {
				if n > 0 && rank != 1 {
					t.Errorf("typed error blames rank %d; only rank 1 died", rank)
				}
			}
			if got := int64(0); true {
				for _, n := range slo.LostTo {
					got += n
				}
				if got != slo.Failed {
					t.Errorf("LostTo accounts %d of %d failures", got, slo.Failed)
				}
			}
			// Exactly the crashed rank is declared dead; err == nil above
			// already proved no surviving image's main aborted (failure
			// stayed request-granular).
			if res.Report.ImagesFailed != 1 {
				t.Errorf("ImagesFailed = %d, want 1 (the crashed rank)", res.Report.ImagesFailed)
			}
			// Function shipping must keep serving after the crash: more
			// than the pre-crash prefix completes. The crash lands ~80µs
			// into a ~420µs schedule, so ≥half completing proves it.
			if shipping && slo.Completed*2 < slo.Requests {
				t.Errorf("shipping variant completed only %d/%d — did not keep serving through the crash",
					slo.Completed, slo.Requests)
			}
		})
	}
}

// TestKVServiceCrashP999Bounded bounds the tail-latency damage: the
// crash may slow completed requests (failover stalls, reconciliation
// ticks) but must not let survivors' p999 run away. The bound is
// deliberately loose — 4× the fault-free p999 plus two detection
// windows — because the point is "bounded", not "unchanged".
func TestKVServiceCrashP999Bounded(t *testing.T) {
	var healthy, crashed load.SLO
	if _, err := workloads.KVService(caf.Config{Images: 8, Seed: 7},
		kvLoadOpts(true, &healthy)); err != nil {
		t.Fatal(err)
	}
	if _, err := workloads.KVService(kvLoadCfg(7), kvLoadOpts(true, &crashed)); err != nil {
		t.Fatal(err)
	}
	det := detectorOn()
	bound := 4*healthy.P999 + 2*(det.Heartbeat+det.Lease)
	if crashed.P999 > bound {
		t.Errorf("crash p999 %v exceeds bound %v (healthy p999 %v)", crashed.P999, bound, healthy.P999)
	}
}

// TestKVServiceCrashBitIdentical is the same-seed bit-identity
// pin for the service-under-crash scenario: repeated runs, at GOMAXPROCS
// 1 and 8, must produce deeply equal Results and SLO reports, across both
// protocols.
func TestKVServiceCrashBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, shipping := range []bool{false, true} {
		name := "locks"
		if shipping {
			name = "shipping"
		}
		t.Run(name, func(t *testing.T) {
			var slo1 load.SLO
			res1, err := workloads.KVService(kvLoadCfg(7), kvLoadOpts(shipping, &slo1))
			if err != nil {
				t.Fatalf("first run failed: %v", err)
			}
			for _, procs := range []int{1, 8} {
				runtime.GOMAXPROCS(procs)
				var slo load.SLO
				res, err := workloads.KVService(kvLoadCfg(7), kvLoadOpts(shipping, &slo))
				if err != nil {
					t.Fatalf("procs=%d: %v", procs, err)
				}
				if !reflect.DeepEqual(res, res1) || !reflect.DeepEqual(slo, slo1) {
					t.Fatalf("procs=%d diverged from the first run:\n got %s\nwant %s",
						procs, slo.Digest(), slo1.Digest())
				}
			}
		})
	}
}
