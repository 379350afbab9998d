package bench

import (
	"fmt"

	caf "caf2go"
	"caf2go/examples/workloads"
	"caf2go/internal/load"
)

// The service-traffic benchmark harness (results/sweeps.json's Load): the
// sharded KV service under open-loop Poisson load, swept across offered
// load × machine size × access protocol (locks vs. function shipping) ×
// coalescing. Each row reports the SLO surface — p50/p99/p999 latency,
// goodput — next to the wire accounting. The headline maps digest the
// two experiments the sweep exists for: how the tail degrades as offered
// load approaches saturation, and how much of the lock protocol's tail
// the function-shipping protocol deletes.

// LoadOpts parameterizes the sweep.
type LoadOpts struct {
	// Images are the machine sizes; half of each machine serves, half
	// generates load.
	Images []int
	// LoadsPerServer are the offered-load points in requests per second
	// per server image (aggregate offered = load × servers), spanning
	// comfortable to saturated for the lock protocol.
	LoadsPerServer []float64
	// Requests is the total request count per run.
	Requests int
	// WriteFrac is the read/write mix.
	WriteFrac float64
	// SvcTime is the per-request server compute.
	SvcTime caf.Time
	// Coalescing is the configuration the coalesced rows run with.
	Coalescing Coalescing
	Seed       int64
}

// DefaultLoad returns the committed-artifact configuration.
func DefaultLoad() LoadOpts {
	return LoadOpts{
		Images:         []int{16, 32},
		LoadsPerServer: []float64{40_000, 100_000, 160_000},
		Requests:       1_500,
		WriteFrac:      0.5,
		SvcTime:        1 * caf.Microsecond,
		Coalescing:     Coalescing{MaxBytes: 2048, MaxMsgs: 8, FlushAfter: 5 * caf.Microsecond},
		Seed:           1,
	}
}

// LoadRow is one (workload, size, offered load, coalesced?) measurement.
type LoadRow struct {
	Workload string // "kv-locks" or "kv-shipping"
	Images   int
	Servers  int
	Clients  int
	// OfferedRPS is the configured aggregate offered load;
	// MeasuredRPS is the schedule's realized arrival rate.
	OfferedRPS  float64
	MeasuredRPS float64
	Coalesced   bool
	// Request outcomes and the SLO latency surface (µs of virtual
	// time, measured from scheduled arrival — open loop, so client
	// queueing under overload counts).
	Requests   int64
	Completed  int64
	P50us      float64
	P99us      float64
	P999us     float64
	MaxUs      float64
	GoodputRPS float64
	// Machine accounting.
	VirtualTime   float64
	MsgsSent      uint64
	BytesSent     uint64
	MsgsCoalesced uint64
	// SLODigest is the canonical SLO report line.
	SLODigest string
}

// LoadReport is the Load section of results/sweeps.json.
type LoadReport struct {
	Opts LoadOpts
	Rows []LoadRow
	// TailInflation is p999/p50 per workload at the largest size and
	// highest offered load (uncoalesced) — how bad the tail is at
	// saturation.
	TailInflation map[string]float64
	// P99LocksOverShipping is the locks/shipping p99 ratio per
	// "images=N/load=R" cell (uncoalesced) — the function-shipping
	// headline.
	P99LocksOverShipping map[string]float64
	// CoalesceMsgReduction is uncoalesced/coalesced wire packets for
	// the shipping workload at the largest size and highest load.
	CoalesceMsgReduction float64
}

// Load runs the sweep.
func Load(o LoadOpts) (LoadReport, error) {
	out := LoadReport{
		Opts:                 o,
		TailInflation:        map[string]float64{},
		P99LocksOverShipping: map[string]float64{},
	}
	type cell struct{ p99Locks, p99Ship float64 }
	cells := map[string]*cell{}

	for _, images := range o.Images {
		servers := images / 2
		for _, perServer := range o.LoadsPerServer {
			offered := perServer * float64(servers)
			key := fmt.Sprintf("images=%d/load=%.0f", images, offered)
			cells[key] = &cell{}
			for _, shipping := range []bool{false, true} {
				workload := "kv-locks"
				if shipping {
					workload = "kv-shipping"
				}
				for _, coal := range []caf.Coalescing{{}, o.Coalescing.fabric()} {
					row, err := loadRow(o, workload, images, offered, shipping, coal)
					if err != nil {
						return out, err
					}
					out.Rows = append(out.Rows, row)
					if !coal.Enabled() {
						if shipping {
							cells[key].p99Ship = row.P99us
						} else {
							cells[key].p99Locks = row.P99us
						}
					}
				}
			}
		}
	}

	// Headlines from the uncoalesced rows.
	maxImages, maxLoad := 0, 0.0
	for _, r := range out.Rows {
		if r.Coalesced {
			continue
		}
		if r.Images > maxImages {
			maxImages = r.Images
		}
		if r.OfferedRPS > maxLoad {
			maxLoad = r.OfferedRPS
		}
	}
	var shipOff, shipOn *LoadRow
	for i := range out.Rows {
		r := &out.Rows[i]
		if r.Images != maxImages {
			continue
		}
		if r.OfferedRPS == maxLoad && !r.Coalesced && r.P50us > 0 {
			out.TailInflation[r.Workload] = r.P999us / r.P50us
		}
		if r.Workload == "kv-shipping" && r.OfferedRPS == maxLoad {
			if r.Coalesced {
				shipOn = r
			} else {
				shipOff = r
			}
		}
	}
	for key, c := range cells {
		if c.p99Ship > 0 {
			out.P99LocksOverShipping[key] = c.p99Locks / c.p99Ship
		}
	}
	if shipOff != nil && shipOn != nil && shipOn.MsgsSent > 0 {
		out.CoalesceMsgReduction = float64(shipOff.MsgsSent) / float64(shipOn.MsgsSent)
	}
	return out, nil
}

func loadRow(o LoadOpts, workload string, images int, offered float64, shipping bool, coal caf.Coalescing) (LoadRow, error) {
	var slo load.SLO
	res, err := workloads.KVService(
		caf.Config{Images: images, Seed: o.Seed, Fabric: caf.FabricConfig{Coalescing: coal}},
		workloads.ServiceOpts{
			Requests:  o.Requests,
			Rate:      offered,
			WriteFrac: o.WriteFrac,
			SvcTime:   o.SvcTime,
			Shipping:  shipping,
			SLOOut:    &slo,
		})
	if err != nil {
		return LoadRow{}, fmt.Errorf("load %s p=%d rate=%.0f coal=%v: %w", workload, images, offered, coal.Enabled(), err)
	}
	if slo.Completed != slo.Requests {
		return LoadRow{}, fmt.Errorf("load %s p=%d rate=%.0f: only %d/%d requests completed in a fault-free run",
			workload, images, offered, slo.Completed, slo.Requests)
	}
	return LoadRow{
		Workload:    workload,
		Images:      images,
		Servers:     images / 2,
		Clients:     images - images/2,
		OfferedRPS:  offered,
		MeasuredRPS: slo.OfferedRPS,
		Coalesced:   coal.Enabled(),
		Requests:    slo.Requests,
		Completed:   slo.Completed,
		P50us:       float64(slo.P50) / 1e3,
		P99us:       float64(slo.P99) / 1e3,
		P999us:      float64(slo.P999) / 1e3,
		MaxUs:       float64(slo.MaxLat) / 1e3,
		GoodputRPS:  slo.GoodputRPS,
		VirtualTime: res.Report.VirtualTime.Seconds(),

		MsgsSent:      res.Report.Msgs,
		BytesSent:     res.Report.Bytes,
		MsgsCoalesced: res.Report.MsgsCoalesced,
		SLODigest:     slo.Digest(),
	}, nil
}
