package bench

import "testing"

// TestSmokeLoad guards results/sweeps.json's Load section: the committed
// sweep (well under a second) must produce a full row matrix (loads ×
// sizes × protocol × coalescing) with every request completed, and the
// headline experiments pointing the right way — function shipping at or
// below the lock protocol's p99 in every cell, and coalescing actually
// batching the shipping variant's small AMs.
func TestSmokeLoad(t *testing.T) {
	o := DefaultLoad()
	rep, err := Load(o)
	if err != nil {
		t.Fatal(err)
	}
	want := len(o.Images) * len(o.LoadsPerServer) * 2 * 2
	if len(rep.Rows) != want {
		t.Fatalf("%d rows, want %d", len(rep.Rows), want)
	}
	for _, r := range rep.Rows {
		if r.Completed != r.Requests {
			t.Errorf("%s p=%d rate=%.0f: %d/%d completed", r.Workload, r.Images, r.OfferedRPS, r.Completed, r.Requests)
		}
		if r.P50us <= 0 || r.P999us < r.P99us || r.P99us < r.P50us {
			t.Errorf("%s p=%d rate=%.0f: bad quantiles p50=%g p99=%g p999=%g", r.Workload, r.Images, r.OfferedRPS, r.P50us, r.P99us, r.P999us)
		}
		if r.Coalesced && r.Workload == "kv-shipping" && r.MsgsCoalesced == 0 {
			t.Errorf("%s p=%d rate=%.0f: coalesced row batched nothing", r.Workload, r.Images, r.OfferedRPS)
		}
	}
	for key, ratio := range rep.P99LocksOverShipping {
		if ratio < 1 {
			t.Errorf("%s: locks p99 beat function shipping (ratio %.2f)", key, ratio)
		}
	}
	if rep.CoalesceMsgReduction < 1 {
		t.Errorf("coalescing increased shipping wire packets (reduction %.2f)", rep.CoalesceMsgReduction)
	}
}
