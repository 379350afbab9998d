package workloads

import (
	"reflect"
	"testing"

	caf "caf2go"
	"caf2go/internal/sim"
)

// TestQuarantineGoldenWorkloads is one pass of the golden harness with
// every released message-path record quarantined (sim.QuarantinePools):
// dead on release, never taken again, its entry points panicking. Every
// workload must produce the Result of the pooled run, instrumented, so
// that the Report, the metrics snapshot and the checks all take part.
func TestQuarantineGoldenWorkloads(t *testing.T) {
	instrument := func(cfg *caf.Config) {
		cfg.TraceCapacity = 1 << 15
		cfg.Metrics = true
	}
	for _, tc := range goldenCases() {
		t.Run(tc.Name, func(t *testing.T) {
			want, err := tc.Run(instrument)
			if err != nil {
				t.Fatalf("pooled run failed: %v", err)
			}
			prev := sim.QuarantinePools
			sim.QuarantinePools = true
			defer func() { sim.QuarantinePools = prev }()
			got, err := tc.Run(instrument)
			if err != nil {
				t.Fatalf("quarantined run failed: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("quarantined run diverged:\n got: %s\nwant: %s", mustJSON(got), mustJSON(want))
			}
		})
	}
}
