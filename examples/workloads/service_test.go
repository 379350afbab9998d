package workloads

import (
	"reflect"
	"runtime"
	"testing"

	caf "caf2go"
	"caf2go/internal/load"
)

// kvGoldenOpts is the pinned KV scenario: 4 shard servers, 4 clients,
// 96 requests at 240k req/s — past the lock variant's serialization
// point but comfortable for function shipping, so the goldens pin the
// contrast, not just two healthy runs.
func kvGoldenOpts(shipping bool) ServiceOpts {
	return ServiceOpts{
		Requests:  96,
		Rate:      240_000,
		WriteFrac: 0.5,
		Shipping:  shipping,
	}
}

// aggGoldenOpts is the pinned fan-out/fan-in scenario: fan of 3 over 4
// servers, 64 requests at 150k req/s.
func aggGoldenOpts(expectFailure bool) ServiceOpts {
	return ServiceOpts{
		Requests:      64,
		Rate:          150_000,
		ExpectFailure: expectFailure,
	}
}

// TestServiceSLO sanity-checks the healthy service scenarios beyond the
// bit-identity pins: everything completes, goodput tracks offered load,
// and function shipping beats locks on both tail latency and message
// count at the pinned operating point.
func TestServiceSLO(t *testing.T) {
	cfg := caf.Config{Images: 8, Seed: 11}

	var locks, ship load.SLO
	oLocks, oShip := kvGoldenOpts(false), kvGoldenOpts(true)
	oLocks.SLOOut, oShip.SLOOut = &locks, &ship
	lockRes, err := KVService(cfg, oLocks)
	if err != nil {
		t.Fatal(err)
	}
	shipRes, err := KVService(cfg, oShip)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]load.SLO{"locks": locks, "shipping": ship} {
		if s.Completed != s.Requests || s.Failed != 0 {
			t.Errorf("%s: %d/%d completed, %d failed", name, s.Completed, s.Requests, s.Failed)
		}
		if s.P50 <= 0 || s.P99 < s.P50 || s.P999 < s.P99 || s.MaxLat < s.P999 {
			t.Errorf("%s: quantiles not monotone: p50=%v p99=%v p999=%v max=%v",
				name, s.P50, s.P99, s.P999, s.MaxLat)
		}
		if s.GoodputRPS < 0.5*s.OfferedRPS {
			t.Errorf("%s: goodput %.0f collapsed vs offered %.0f", name, s.GoodputRPS, s.OfferedRPS)
		}
	}
	if ship.P99 >= locks.P99 {
		t.Errorf("function shipping p99 %v not better than locks %v", ship.P99, locks.P99)
	}
	if shipRes.Report.Msgs >= lockRes.Report.Msgs {
		t.Errorf("function shipping sent %d msgs, locks %d — shipping should send fewer",
			shipRes.Report.Msgs, lockRes.Report.Msgs)
	}

	var agg load.SLO
	oAgg := aggGoldenOpts(false)
	oAgg.SLOOut = &agg
	if _, err := AggService(cfg, oAgg); err != nil {
		t.Fatal(err)
	}
	if agg.Completed != agg.Requests || agg.Failed != 0 || agg.Failovers != 0 {
		t.Errorf("agg: %+v", agg)
	}
}

// TestServiceCoalescingHelps: the KV shipping scenario is small-AM
// request traffic — exactly what adaptive coalescing exists for. The
// coalesced run must put multiple AMs on shared wire packets.
func TestServiceCoalescingHelps(t *testing.T) {
	cfg := caf.Config{Images: 8, Seed: 11}
	plain, err := KVService(cfg, kvGoldenOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fabric.Coalescing = caf.Coalescing{MaxMsgs: 8, MaxBytes: 2048, FlushAfter: 5 * caf.Microsecond}
	coal, err := KVService(cfg, kvGoldenOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	if coal.Report.MsgsCoalesced == 0 {
		t.Error("coalesced KV run batched zero messages")
	}
	if coal.Report.Msgs >= plain.Report.Msgs {
		t.Errorf("coalescing did not reduce wire packets: %d vs %d",
			coal.Report.Msgs, plain.Report.Msgs)
	}
}

// TestLoadGOMAXPROCSEquivalence is the arrival-determinism property test
// at the SLO level: the same seed must produce a byte-identical arrival
// schedule and SLO report at every GOMAXPROCS of the sweep — the
// service-scenario extension of TestGoldenGOMAXPROCSEquivalence (which
// covers the Report and Check for the same rows). The crashed KV
// variant rides along so the failure path is pinned too.
func TestLoadGOMAXPROCSEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	sched := load.Schedule(load.ArrivalConfig{Seed: 11, Clients: 4, Requests: 96, Rate: 240_000, Keys: 64})
	scenarios := []struct {
		name string
		run  func() (Result, load.SLO, error)
	}{
		{"kv-shipping", func() (Result, load.SLO, error) {
			var slo load.SLO
			o := kvGoldenOpts(true)
			o.SLOOut = &slo
			res, err := KVService(caf.Config{Images: 8, Seed: 11}, o)
			return res, slo, err
		}},
		{"kv-shipping-crashed", func() (Result, load.SLO, error) {
			var slo load.SLO
			o := kvGoldenOpts(true)
			o.SLOOut = &slo
			cfg := caf.Config{
				Images: 8, Seed: 11,
				Fabric:          caf.FabricConfig{Faults: &caf.FaultPlan{Crash: map[int]caf.Time{1: 150 * caf.Microsecond}}},
				FailureDetector: caf.FailureDetectorConfig{Enabled: true, Heartbeat: 2 * caf.Microsecond},
			}
			res, err := KVService(cfg, o)
			return res, slo, err
		}},
		{"kv-replicated-crashed", func() (Result, load.SLO, error) {
			// The full recovery pipeline — mirror writes, epoch
			// agreement, promotion, request replay — must also be
			// bit-identical at every GOMAXPROCS.
			var slo load.SLO
			o := kvGoldenOpts(true)
			o.Replicated = true
			o.SLOOut = &slo
			cfg := caf.Config{
				Images: 8, Seed: 11,
				Fabric:          caf.FabricConfig{Faults: &caf.FaultPlan{Crash: map[int]caf.Time{1: 150 * caf.Microsecond}}},
				Replication:     caf.ReplicationConfig{Enabled: true},
				FailureDetector: caf.FailureDetectorConfig{Enabled: true, Heartbeat: 2 * caf.Microsecond},
			}
			res, err := KVService(cfg, o)
			return res, slo, err
		}},
		{"agg-service", func() (Result, load.SLO, error) {
			var slo load.SLO
			o := aggGoldenOpts(false)
			o.SLOOut = &slo
			res, err := AggService(caf.Config{Images: 8, Seed: 11}, o)
			return res, slo, err
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			baseRes, baseSLO, err := sc.run()
			if err != nil {
				t.Fatal(err)
			}
			baseDigest := baseSLO.Digest()
			for _, procs := range gomaxprocsMx {
				prev := runtime.GOMAXPROCS(procs)
				// The schedule itself must be unaffected by the Go
				// scheduler — it is pure, but pin it anyway.
				if s := load.Schedule(load.ArrivalConfig{Seed: 11, Clients: 4, Requests: 96, Rate: 240_000, Keys: 64}); !reflect.DeepEqual(s, sched) {
					t.Errorf("procs=%d: arrival schedule diverged", procs)
				}
				res, slo, err := sc.run()
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("procs=%d: %v", procs, err)
				}
				if !reflect.DeepEqual(res, baseRes) {
					t.Errorf("procs=%d: Result diverged:\n got: %s\nwant: %s",
						procs, res.Check, baseRes.Check)
				}
				if !reflect.DeepEqual(slo, baseSLO) || slo.Digest() != baseDigest {
					t.Errorf("procs=%d: SLO diverged:\n got: %s\nwant: %s",
						procs, slo.Digest(), baseDigest)
				}
			}
		})
	}
}

// TestServiceRejectsBadShape pins the config validation.
func TestServiceRejectsBadShape(t *testing.T) {
	if _, err := KVService(caf.Config{Images: 2, Seed: 1}, ServiceOpts{Servers: 2}); err == nil {
		t.Error("KVService accepted a machine with no client images")
	}
	if _, err := AggService(caf.Config{Images: 2, Seed: 1}, ServiceOpts{Servers: 2}); err == nil {
		t.Error("AggService accepted a machine with no client images")
	}
}
