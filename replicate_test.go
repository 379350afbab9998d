package caf_test

import (
	"testing"

	caf "caf2go"
)

func replCfg(n int, seed int64, crash map[int]caf.Time) caf.Config {
	cfg := caf.Config{
		Images:      n,
		Seed:        seed,
		Replication: caf.ReplicationConfig{Enabled: true},
		FailureDetector: caf.FailureDetectorConfig{
			Enabled:   true,
			Heartbeat: 2 * caf.Microsecond,
		},
	}
	if len(crash) > 0 {
		cfg.Fabric.Faults = &caf.FaultPlan{Seed: seed, Crash: crash}
	}
	return cfg
}

// TestReplCoarrayMirrorAndLedger: on a healthy machine every Apply
// mirrors to the next rank, and re-applying an already-applied seq
// returns the recorded value instead of double-applying.
func TestReplCoarrayMirrorAndLedger(t *testing.T) {
	_, err := caf.Run(replCfg(4, 7, nil), func(img *caf.Image) {
		rc := caf.NewReplCoarray[int64](img, nil, 8, nil)
		me := img.Rank()
		if v := rc.Apply(img, me, 100+me, 3, func(cur int64) int64 { return cur + 10 }); v != 10 {
			t.Errorf("rank %d: first apply = %d, want 10", me, v)
		}
		// Exactly-once: same (home, seq) must not re-apply.
		if v := rc.Apply(img, me, 100+me, 3, func(cur int64) int64 { return cur + 10 }); v != 10 {
			t.Errorf("rank %d: replayed apply = %d, want 10", me, v)
		}
		if v := rc.Apply(img, me, 200+me, 3, func(cur int64) int64 { return cur + 5 }); v != 15 {
			t.Errorf("rank %d: second apply = %d, want 15", me, v)
		}
		// Let the mirrors land, then check the copy of the previous
		// home held here matches the primary.
		img.Compute(50 * caf.Microsecond)
		img.Barrier(nil)
		prev := (me + 3) % 4
		if rc.Backup(prev) != me {
			t.Fatalf("rank %d: Backup(%d) = %d", me, prev, rc.Backup(prev))
		}
		if got := rc.Read(img, prev, 3); got != 15 {
			t.Errorf("rank %d: mirror of home %d = %d, want 15", me, prev, got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplCoarrayFailover: the backup of a crashed primary is promoted
// at the epoch commit; replayed requests are answered exactly once from
// the mirrored ledger and new requests land on the promoted copy.
func TestReplCoarrayFailover(t *testing.T) {
	m := caf.NewMachine(replCfg(4, 9, map[int]caf.Time{1: 30 * caf.Microsecond}))
	m.Launch(func(img *caf.Image) {
		rc := caf.NewReplCoarray[int64](img, nil, 4, nil)
		switch img.Rank() {
		case 1:
			// Primary of home 1 applies once before dying; the mirror
			// reaches rank 2 well before the 30µs crash.
			if v := rc.Apply(img, 1, 1, 0, func(cur int64) int64 { return cur + 7 }); v != 7 {
				t.Errorf("pre-crash apply = %d, want 7", v)
			}
		case 2:
			img.Compute(100 * caf.Microsecond) // past detection + agreement
			if got := rc.Serving(1); got != 2 {
				t.Errorf("post-commit Serving(1) = %d, want promoted backup 2", got)
			}
			// Replay of the pre-crash request: ledger hit, not a
			// double-apply.
			if v := rc.Apply(img, 1, 1, 0, func(cur int64) int64 { return cur + 7 }); v != 7 {
				t.Errorf("replayed apply = %d, want recorded 7", v)
			}
			// Fresh request continues from the mirrored state.
			if v := rc.Apply(img, 1, 2, 0, func(cur int64) int64 { return cur + 5 }); v != 12 {
				t.Errorf("post-failover apply = %d, want 12", v)
			}
			if got := rc.Read(img, 1, 0); got != 12 {
				t.Errorf("promoted copy = %d, want 12", got)
			}
		}
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 1 || !m.DeathCommitted(1) || m.DeathCommitted(2) {
		t.Errorf("epoch=%d committed(1)=%v committed(2)=%v", m.Epoch(), m.DeathCommitted(1), m.DeathCommitted(2))
	}
	if got := m.ReplicaOf(1); got != 2 {
		t.Errorf("ReplicaOf(1) = %d, want 2", got)
	}
	if st := m.ReplStats(); st.Promotions != 1 || st.Epoch != 1 {
		t.Errorf("ReplStats = %+v", st)
	}
}

// TestReplicationOffIsInert: with the zero Replication config the
// machine-level surface answers zeros and a ReplCoarray routes
// statically — nothing about the run depends on the repl subsystem.
func TestReplicationOffIsInert(t *testing.T) {
	m := caf.NewMachine(caf.Config{Images: 2, Seed: 3})
	m.Launch(func(img *caf.Image) {
		rc := caf.NewReplCoarray[int64](img, nil, 2, nil)
		if rc.Serving(0) != 0 || rc.Serving(1) != 1 {
			t.Errorf("static routing broken: %d %d", rc.Serving(0), rc.Serving(1))
		}
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 0 || m.DeathCommitted(0) || m.ReplicaOf(0) != -1 || (m.ReplStats() != caf.ReplStats{}) {
		t.Error("replication-off machine surface is not inert")
	}
}
