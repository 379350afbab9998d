package bench

import (
	"fmt"

	caf "caf2go"
	"caf2go/examples/workloads"
	"caf2go/internal/load"
)

// The recovery benchmark harness (results/sweeps.json's Recovery): the KV
// service with a mid-traffic primary crash, swept across detector
// heartbeat × machine size × replication on/off. Each row reports the
// request outcomes (lost vs. replayed), the recovery timeline
// (declaration to epoch commit), and the SLO surface. The headlines
// digest the experiment the sweep exists for: without replication a
// crash loses every stranded request, with replication the same crash
// loses zero — at a recovery latency that scales linearly with the
// heartbeat.

// RecoveryOpts parameterizes the sweep.
type RecoveryOpts struct {
	// Images are the machine sizes; half of each machine serves.
	Images []int
	// Heartbeats are the detector heartbeat periods swept (the lease
	// defaults to 2× the heartbeat, so detection + agreement both scale
	// with it).
	Heartbeats []caf.Time
	// CrashAt is the primary's crash time, inside the serving window.
	CrashAt caf.Time
	// Requests is the total request count per run.
	Requests int
	// RatePerServer is the offered load per server image in requests
	// per second (aggregate offered = rate × servers).
	RatePerServer float64
	// WriteFrac is the read/write mix.
	WriteFrac float64
	// SvcTime is the per-request server compute.
	SvcTime caf.Time
	Seed    int64
}

// DefaultRecovery returns the committed-artifact configuration.
func DefaultRecovery() RecoveryOpts {
	return RecoveryOpts{
		Images:        []int{8, 16},
		Heartbeats:    []caf.Time{2 * caf.Microsecond, 5 * caf.Microsecond, 10 * caf.Microsecond},
		CrashAt:       80 * caf.Microsecond,
		Requests:      960,
		RatePerServer: 150_000,
		WriteFrac:     0.5,
		SvcTime:       1 * caf.Microsecond,
		Seed:          7,
	}
}

// RecoveryRow is one (size, heartbeat, replicated?) measurement.
type RecoveryRow struct {
	Workload string // "kv-shipping" (replication off) or "kv-replicated"
	Images   int
	Servers  int
	// HeartbeatUs is the detector heartbeat; detection takes up to
	// heartbeat + lease (= 3× heartbeat) and the epoch agreement two
	// more heartbeats.
	HeartbeatUs float64
	Replicated  bool
	// Request outcomes: with replication off, stranded requests are
	// Failed (typed errors); with replication on they are Replayed
	// against the promoted backup and complete.
	Requests  int64
	Completed int64
	Failed    int64
	Replayed  int64
	Failovers int64
	// Recovery timeline (µs of virtual time): the committed epoch and
	// the crash-to-commit latency (0 with replication off — no epoch
	// ever commits).
	Epoch           int
	Promotions      int64
	CrashToCommitUs float64
	// SLO latency surface (µs, from scheduled arrival) and goodput.
	P50us      float64
	P99us      float64
	P999us     float64
	MaxUs      float64
	GoodputRPS float64
	// SLODigest is the canonical SLO report line.
	SLODigest string
}

// RecoveryReport is the Recovery section of results/sweeps.json.
type RecoveryReport struct {
	Opts RecoveryOpts
	Rows []RecoveryRow
	// LostWithoutReplication / LostWithReplication count failed requests
	// per "images=N/hb=Hus" cell — the zero-loss headline.
	LostWithoutReplication map[string]int64
	LostWithReplication    map[string]int64
	// RecoveryUsByHeartbeat is the crash-to-commit latency per heartbeat
	// (µs, at the largest size) — recovery scales with detection, not
	// with load.
	RecoveryUsByHeartbeat map[string]float64
}

// keyHB renders a heartbeat headline key ("hb=2us").
func keyHB(hb caf.Time) string { return fmt.Sprintf("hb=%dus", int64(hb)/1000) }

// Recovery runs the sweep.
func Recovery(o RecoveryOpts) (RecoveryReport, error) {
	out := RecoveryReport{
		Opts:                   o,
		LostWithoutReplication: map[string]int64{},
		LostWithReplication:    map[string]int64{},
		RecoveryUsByHeartbeat:  map[string]float64{},
	}
	maxImages := 0
	for _, images := range o.Images {
		if images > maxImages {
			maxImages = images
		}
	}
	for _, images := range o.Images {
		for _, hb := range o.Heartbeats {
			key := fmt.Sprintf("images=%d/hb=%dus", images, int64(hb)/1000)
			for _, replicated := range []bool{false, true} {
				row, err := recoveryRow(o, images, hb, replicated)
				if err != nil {
					return out, err
				}
				out.Rows = append(out.Rows, row)
				if replicated {
					out.LostWithReplication[key] = row.Failed
					if images == maxImages {
						out.RecoveryUsByHeartbeat[keyHB(hb)] = row.CrashToCommitUs
					}
				} else {
					out.LostWithoutReplication[key] = row.Failed
				}
			}
		}
	}
	return out, nil
}

func recoveryRow(o RecoveryOpts, images int, hb caf.Time, replicated bool) (RecoveryRow, error) {
	servers := images / 2
	workload := "kv-shipping"
	if replicated {
		workload = "kv-replicated"
	}
	var slo load.SLO
	var rs caf.ReplStats
	cfg := caf.Config{
		Images: images,
		Seed:   o.Seed,
		Fabric: caf.FabricConfig{Faults: &caf.FaultPlan{
			Seed:  o.Seed,
			Crash: map[int]caf.Time{1: o.CrashAt},
		}},
		FailureDetector: caf.FailureDetectorConfig{Enabled: true, Heartbeat: hb},
	}
	opts := workloads.ServiceOpts{
		Requests:  o.Requests,
		Rate:      o.RatePerServer * float64(servers),
		WriteFrac: o.WriteFrac,
		SvcTime:   o.SvcTime,
		Shipping:  true,
		SLOOut:    &slo,
	}
	if replicated {
		cfg.Replication = caf.ReplicationConfig{Enabled: true}
		opts.Replicated = true
		opts.ReplOut = &rs
	}
	if _, err := workloads.KVService(cfg, opts); err != nil {
		return RecoveryRow{}, fmt.Errorf("recovery %s p=%d hb=%v: %w", workload, images, hb, err)
	}
	if slo.Completed+slo.Failed != slo.Requests {
		return RecoveryRow{}, fmt.Errorf("recovery %s p=%d hb=%v: %d requests unsettled",
			workload, images, hb, slo.Requests-slo.Completed-slo.Failed)
	}
	if replicated && slo.Failed != 0 {
		return RecoveryRow{}, fmt.Errorf("recovery %s p=%d hb=%v: lost %d requests with replication on",
			workload, images, hb, slo.Failed)
	}
	row := RecoveryRow{
		Workload:    workload,
		Images:      images,
		Servers:     servers,
		HeartbeatUs: float64(hb) / 1e3,
		Replicated:  replicated,
		Requests:    slo.Requests,
		Completed:   slo.Completed,
		Failed:      slo.Failed,
		Replayed:    slo.Replayed,
		Failovers:   slo.Failovers,
		Epoch:       rs.Epoch,
		Promotions:  rs.Promotions,
		P50us:       float64(slo.P50) / 1e3,
		P99us:       float64(slo.P99) / 1e3,
		P999us:      float64(slo.P999) / 1e3,
		MaxUs:       float64(slo.MaxLat) / 1e3,
		GoodputRPS:  slo.GoodputRPS,
		SLODigest:   slo.Digest(),
	}
	if replicated && rs.Epoch > 0 {
		row.CrashToCommitUs = float64(rs.EpochAt-o.CrashAt) / 1e3
	}
	return row, nil
}
