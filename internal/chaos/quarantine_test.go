package chaos

import (
	"fmt"
	"reflect"
	"testing"

	"caf2go/internal/sim"

	caf "caf2go"
)

// TestQuarantineChaosSweep is one pass of the sweeps with every released
// message-path record quarantined (sim.QuarantinePools): each workload on
// the idealized fabric (where records are recycled), under the
// aggressive fault plan and coalesced under it (where duplicates and
// retransmissions outlive acks, so nothing may be), and with an image
// crashed under the failure detector (aborted Calls, abandoned sends).
// Outcome and error must equal the pooled run's.
func TestQuarantineChaosSweep(t *testing.T) {
	const seed = 2
	rows := []struct {
		name string
		cfg  caf.Config
	}{
		{"clean", caf.Config{Seed: seed}},
		{"faults", caf.Config{Seed: seed, Fabric: caf.FabricConfig{Faults: Plan(seed, 0.2)}}},
		{"faults-coalesced", caf.Config{Seed: seed, Fabric: caf.FabricConfig{Faults: Plan(seed, 0.2), Coalescing: caf.Coalescing{MaxMsgs: 8}}}},
		{"crash-detected", caf.Config{Seed: seed, Fabric: caf.FabricConfig{Faults: crashPlan(seed, 0.05)}, FailureDetector: detectorOn()}},
	}
	for _, w := range Workloads() {
		for _, row := range rows {
			w, row := w, row
			t.Run(fmt.Sprintf("%s/%s", w.Name, row.name), func(t *testing.T) {
				want, wantErr := w.Run(row.cfg)
				prev := sim.QuarantinePools
				sim.QuarantinePools = true
				defer func() { sim.QuarantinePools = prev }()
				got, gotErr := w.Run(row.cfg)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("quarantined run ended with %v, pooled run with %v", gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("quarantined outcome diverged:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}
