package bench

import "testing"

// TestSmokeRecovery guards results/sweeps.json's Recovery section: the
// committed sweep (well under a second) must produce the full row matrix
// (sizes × heartbeats × replication on/off) and the headline experiments
// pointing the right way — the unreplicated runs lose requests to the
// crash, the replicated runs lose none, and the crash-to-commit latency
// grows monotonically with the heartbeat.
func TestSmokeRecovery(t *testing.T) {
	o := DefaultRecovery()
	rep, err := Recovery(o)
	if err != nil {
		t.Fatal(err)
	}
	want := len(o.Images) * len(o.Heartbeats) * 2
	if len(rep.Rows) != want {
		t.Fatalf("%d rows, want %d", len(rep.Rows), want)
	}
	for _, r := range rep.Rows {
		if r.Completed+r.Failed != r.Requests {
			t.Errorf("%s p=%d hb=%g: %d requests unsettled", r.Workload, r.Images, r.HeartbeatUs, r.Requests-r.Completed-r.Failed)
		}
		if r.Replicated {
			if r.Failed != 0 {
				t.Errorf("%s p=%d hb=%g: lost %d requests with replication on", r.Workload, r.Images, r.HeartbeatUs, r.Failed)
			}
			if r.Epoch != 1 || r.Promotions != 1 {
				t.Errorf("%s p=%d hb=%g: epoch=%d promotions=%d, want one recovery", r.Workload, r.Images, r.HeartbeatUs, r.Epoch, r.Promotions)
			}
			// Declaration within heartbeat + lease (3 hb) of the crash
			// plus two collect heartbeats: commit ≤ 5 heartbeats out.
			if r.CrashToCommitUs <= 0 || r.CrashToCommitUs > 5*r.HeartbeatUs {
				t.Errorf("%s p=%d hb=%g: crash-to-commit %gµs out of range", r.Workload, r.Images, r.HeartbeatUs, r.CrashToCommitUs)
			}
		} else if r.Failed == 0 {
			t.Errorf("%s p=%d hb=%g: unreplicated crash lost nothing — baseline not exercising the failure", r.Workload, r.Images, r.HeartbeatUs)
		}
	}
	for cell, lost := range rep.LostWithoutReplication {
		if with := rep.LostWithReplication[cell]; with != 0 || lost == 0 {
			t.Errorf("%s: lost %d without replication, %d with — headline inverted", cell, lost, with)
		}
	}
	var prev float64
	for _, hb := range o.Heartbeats {
		us := rep.RecoveryUsByHeartbeat[keyHB(hb)]
		if us <= prev {
			t.Errorf("recovery time %gµs at hb=%v not increasing (prev %gµs)", us, hb, prev)
		}
		prev = us
	}
}
