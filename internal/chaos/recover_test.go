package chaos

import (
	"reflect"
	"runtime"
	"testing"

	caf "caf2go"
	"caf2go/examples/workloads"
	"caf2go/internal/load"
)

// kvReplOpts is the replicated KV chaos scenario: 4 shard servers with
// primary-backup mirroring, 4 open-loop clients, 240 requests at
// 600k req/s — hot enough that requests are always in flight when a
// crash lands, so the replay path is genuinely exercised.
func kvReplOpts(slo *load.SLO, rs *caf.ReplStats) workloads.ServiceOpts {
	return workloads.ServiceOpts{
		Requests:   240,
		Rate:       600_000,
		WriteFrac:  0.5,
		Shipping:   true,
		Replicated: true,
		SLOOut:     slo,
		ReplOut:    rs,
	}
}

// kvReplCfg is kvLoadCfg with replication on and an arbitrary crash
// plan (nil for a healthy run).
func kvReplCfg(seed int64, crash map[int]caf.Time) caf.Config {
	cfg := caf.Config{
		Images:          8,
		Seed:            seed,
		Replication:     caf.ReplicationConfig{Enabled: true},
		FailureDetector: detectorOn(),
	}
	if len(crash) > 0 {
		cfg.Fabric.Faults = &caf.FaultPlan{Seed: seed, Crash: crash}
	}
	return cfg
}

// oneCrash kills shard server 1 (primary of home 1, backup of home 0)
// at 80µs, mid-traffic.
func oneCrash() map[int]caf.Time {
	return map[int]caf.Time{1: 80 * caf.Microsecond}
}

// TestKVRecoverZeroLoss is the headline robustness acceptance row: with
// replication on, a single mid-traffic server crash loses *zero*
// requests. In-flight requests to the dead primary are replayed against
// the promoted backup once the epoch commits, the applied ledger makes
// the replays exactly-once, and the run terminates cleanly.
func TestKVRecoverZeroLoss(t *testing.T) {
	var slo load.SLO
	var rs caf.ReplStats
	_, err := workloads.KVService(kvReplCfg(7, oneCrash()), kvReplOpts(&slo, &rs))
	if err != nil {
		t.Fatalf("recovery run did not terminate cleanly: %v", err)
	}
	if slo.Failed != 0 {
		t.Errorf("lost %d requests with replication on (lostTo=%v)", slo.Failed, slo.LostTo)
	}
	if slo.Completed != slo.Requests {
		t.Errorf("completed %d of %d", slo.Completed, slo.Requests)
	}
	if slo.Replayed == 0 {
		t.Error("no request was replayed — scenario not exercising the recovery path")
	}
	if slo.Failovers == 0 {
		t.Error("no failovers — requests never routed to the promoted backup")
	}
	if rs.Epoch != 1 || rs.Promotions != 1 || rs.Restarts != 0 {
		t.Errorf("recovery stats = %+v, want exactly one clean epoch", rs)
	}
	// The commit time is fully deterministic: crash at 80µs, heartbeat
	// 2µs and lease 4µs declare at 84µs, and the double collect commits
	// two heartbeats later.
	if want := 88 * caf.Microsecond; rs.EpochAt != want {
		t.Errorf("epoch committed at %v, want %v", rs.EpochAt, want)
	}
}

// TestKVRecoverTailBounded bounds the recovery's latency damage: every
// stranded request waits at most detection (heartbeat round-up + lease)
// plus one epoch agreement (two heartbeats) before its replay, so the
// crashed run's p999 — and even its MaxLat, which includes the replayed
// requests — must stay within the healthy tail plus a few recovery
// windows.
func TestKVRecoverTailBounded(t *testing.T) {
	var healthy, crashed load.SLO
	if _, err := workloads.KVService(kvReplCfg(7, nil), kvReplOpts(&healthy, nil)); err != nil {
		t.Fatal(err)
	}
	if healthy.Failed != 0 || healthy.Replayed != 0 {
		t.Fatalf("healthy replicated run unhealthy: %s", healthy.Digest())
	}
	if _, err := workloads.KVService(kvReplCfg(7, oneCrash()), kvReplOpts(&crashed, nil)); err != nil {
		t.Fatal(err)
	}
	det := detectorOn()
	lease := 2 * det.Heartbeat // config default
	recovery := (det.Heartbeat + lease) + 2*det.Heartbeat
	bound := 4*healthy.P999 + 2*recovery
	if crashed.P999 > bound {
		t.Errorf("crash p999 %v exceeds bound %v (healthy p999 %v)", crashed.P999, bound, healthy.P999)
	}
	if maxBound := healthy.MaxLat + 4*recovery; crashed.MaxLat > maxBound {
		t.Errorf("crash MaxLat %v exceeds bound %v (healthy MaxLat %v)", crashed.MaxLat, maxBound, healthy.MaxLat)
	}
}

// TestKVRecoverBackToBackCrashes: both members of home 1's replica
// group die — primary rank 1, then its backup rank 2 after the first
// recovery has committed. Requests against the wholly-dead group fail
// typed (blaming the group's home), home 2 re-replays onto rank 3, and
// the run still terminates cleanly with every request settled.
func TestKVRecoverBackToBackCrashes(t *testing.T) {
	var slo load.SLO
	var rs caf.ReplStats
	crash := map[int]caf.Time{
		1: 80 * caf.Microsecond,
		2: 200 * caf.Microsecond, // well after the first commit at 88µs
	}
	_, err := workloads.KVService(kvReplCfg(7, crash), kvReplOpts(&slo, &rs))
	if err != nil {
		t.Fatalf("double-crash run did not terminate cleanly: %v", err)
	}
	if slo.Completed+slo.Failed != slo.Requests {
		t.Fatalf("requests unsettled: done=%d fail=%d of %d", slo.Completed, slo.Failed, slo.Requests)
	}
	if slo.Failed == 0 {
		t.Error("whole replica group dead but no request failed — copies accounting broken")
	}
	if slo.Completed == 0 {
		t.Error("no request completed — service never recovered")
	}
	// Only home 1's group {1,2} is wholly dead; failures blame its home.
	for rank, n := range slo.LostTo {
		if n > 0 && rank != 1 {
			t.Errorf("typed error blames rank %d; only home 1's group is gone", rank)
		}
	}
	if rs.Epoch != 2 || rs.Promotions != 2 {
		t.Errorf("recovery stats = %+v, want two epochs / two promotions", rs)
	}
}

// TestKVRecoverCrashMidRecovery: the backup dies while the first
// crash's double collect is still running — rank 1 declared at 84µs,
// rank 2's declaration lands at 88µs between the two collect
// observations, invalidating the first agreement. The protocol restarts
// the collect, commits one epoch covering both deaths, and the service
// still settles everything without deadlock.
func TestKVRecoverCrashMidRecovery(t *testing.T) {
	var slo load.SLO
	var rs caf.ReplStats
	crash := map[int]caf.Time{
		1: 80 * caf.Microsecond,
		2: 83 * caf.Microsecond, // declared at 88µs, mid-agreement
	}
	_, err := workloads.KVService(kvReplCfg(7, crash), kvReplOpts(&slo, &rs))
	if err != nil {
		t.Fatalf("mid-recovery crash run did not terminate cleanly: %v", err)
	}
	if slo.Completed+slo.Failed != slo.Requests {
		t.Fatalf("requests unsettled: done=%d fail=%d of %d", slo.Completed, slo.Failed, slo.Requests)
	}
	if rs.Restarts == 0 {
		t.Error("second declaration mid-agreement did not restart the double collect")
	}
	if rs.Epoch != 1 || rs.Promotions != 2 {
		t.Errorf("recovery stats = %+v, want one combined epoch committing both deaths", rs)
	}
	for rank, n := range slo.LostTo {
		if n > 0 && rank != 1 {
			t.Errorf("typed error blames rank %d; only home 1's group is gone", rank)
		}
	}
}

// TestKVRecoverBitIdentical pins the whole recovery pipeline —
// mirror traffic, agreement schedule, promotion, replay — as
// deterministic: same-seed reruns, at GOMAXPROCS 1 and 8, must produce
// deeply equal Results, SLO reports, and recovery stats.
func TestKVRecoverBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	scenarios := map[string]map[int]caf.Time{
		"single-crash": oneCrash(),
		"mid-recovery": {1: 80 * caf.Microsecond, 2: 83 * caf.Microsecond},
		"back-to-back": {1: 80 * caf.Microsecond, 2: 200 * caf.Microsecond},
	}
	for name, crash := range scenarios {
		t.Run(name, func(t *testing.T) {
			var slo1 load.SLO
			var rs1 caf.ReplStats
			res1, err := workloads.KVService(kvReplCfg(7, crash), kvReplOpts(&slo1, &rs1))
			if err != nil {
				t.Fatalf("first run failed: %v", err)
			}
			for _, procs := range []int{1, 8} {
				runtime.GOMAXPROCS(procs)
				var slo load.SLO
				var rs caf.ReplStats
				res, err := workloads.KVService(kvReplCfg(7, crash), kvReplOpts(&slo, &rs))
				if err != nil {
					t.Fatalf("procs=%d: %v", procs, err)
				}
				if !reflect.DeepEqual(res, res1) || !reflect.DeepEqual(slo, slo1) || rs != rs1 {
					t.Fatalf("procs=%d diverged from the first run:\n got %s %+v\nwant %s %+v",
						procs, slo.Digest(), rs, slo1.Digest(), rs1)
				}
			}
		})
	}
}
