package bench

import (
	"fmt"

	caf "caf2go"
	"caf2go/internal/ra"
)

// The coalescing benchmark-regression harness: it runs the fine-grained
// workloads that motivated message coalescing — RandomAccess function
// shipping (the paper's §IV-B traffic: storms of 16-byte spawn AMs) and
// the Fig. 12 cofence producer/consumer loop — with coalescing off and
// on, and reports the wire-packet and virtual-time deltas as one JSON
// document (the Coalesce section of results/sweeps.json). The tests assert
// the packet-reduction floor, so a regression in the coalescing layer (or
// a send-path change that silently stops batching) fails the build.

// CoalesceOpts parameterizes the sweep.
type CoalesceOpts struct {
	// Cores are the RandomAccess machine sizes (the reduction target is
	// asserted at the largest).
	Cores []int
	// LocalTableBits sizes the per-image RA table (2^bits words).
	LocalTableBits int
	// BunchSize groups RA updates per finish block.
	BunchSize int
	// Fig12Cores are the cofence-loop machine sizes.
	Fig12Cores []int
	// Fig12Iters is the cofence-loop iteration count.
	Fig12Iters int
	// Coalescing is the configuration under test.
	Coalescing Coalescing
	Seed       int64
}

// Coalescing is a sweep's coalescing configuration: the three values the
// sweeps set and record in results/sweeps.json. It is the sweeps' own
// type, not caf.Coalescing, so a setting added to the fabric does not
// enter the committed document unasked.
type Coalescing struct {
	MaxBytes   int
	MaxMsgs    int
	FlushAfter caf.Time
}

// fabric is c as the fabric's configuration.
func (c Coalescing) fabric() caf.Coalescing {
	return caf.Coalescing{MaxBytes: c.MaxBytes, MaxMsgs: c.MaxMsgs, FlushAfter: c.FlushAfter}
}

// DefaultCoalesce returns the committed-artifact configuration.
func DefaultCoalesce() CoalesceOpts {
	return CoalesceOpts{
		Cores:          []int{16, 32, 64},
		LocalTableBits: 8,
		BunchSize:      256,
		Fig12Cores:     []int{64, 128},
		Fig12Iters:     200,
		Coalescing:     Coalescing{MaxBytes: 4096, MaxMsgs: 16, FlushAfter: 10 * caf.Microsecond},
		Seed:           1,
	}
}

// CoalesceRow is one (workload, size, coalesced?) measurement.
type CoalesceRow struct {
	Workload  string // "randomaccess-fs" or "cofence-fig12"
	Images    int
	Coalesced bool
	// VirtualTime is the simulated makespan in seconds; GUPS is virtual
	// giga-updates/s (RandomAccess rows only).
	VirtualTime float64
	GUPS        float64 `json:",omitempty"`
	// Wire accounting: MsgsSent counts wire packets (a batch is one);
	// MsgsCoalesced counts messages that rode inside multi-message
	// batches; the Flush* fields say why buffers emptied.
	MsgsSent       uint64
	BytesSent      uint64
	MsgsCoalesced  uint64
	Flushes        uint64
	FlushBySize    uint64
	FlushByTimer   uint64
	FlushByBarrier uint64
	// Errors counts RA table corruptions (must be 0: coalescing may not
	// change results).
	Errors int64
	// Failure accounting (zero — and omitted — unless a row runs with
	// the failure detector on and images actually die).
	ImagesFailed         int   `json:",omitempty"`
	OpsAbortedByFailure  int64 `json:",omitempty"`
	FinishLostActivities int64 `json:",omitempty"`
}

// CoalesceReport is the Coalesce section of results/sweeps.json.
type CoalesceReport struct {
	Opts CoalesceOpts
	Rows []CoalesceRow
	// MsgReduction is uncoalesced/coalesced wire packets per workload at
	// the largest size — the headline of the experiment.
	MsgReduction map[string]float64
	// Speedup is uncoalesced/coalesced virtual time, same keying.
	Speedup map[string]float64
}

func rowFromReport(workload string, images int, coalesced bool, rep caf.Report) CoalesceRow {
	return CoalesceRow{
		Workload:       workload,
		Images:         images,
		Coalesced:      coalesced,
		VirtualTime:    rep.VirtualTime.Seconds(),
		MsgsSent:       rep.Msgs,
		BytesSent:      rep.Bytes,
		MsgsCoalesced:  rep.MsgsCoalesced,
		Flushes:        rep.Flushes,
		FlushBySize:    rep.FlushBySize,
		FlushByTimer:   rep.FlushByTimer,
		FlushByBarrier: rep.FlushByBarrier,

		ImagesFailed:         rep.ImagesFailed,
		OpsAbortedByFailure:  rep.OpsAbortedByFailure,
		FinishLostActivities: rep.FinishLostActivities,
	}
}

// Coalesce runs the sweep.
func Coalesce(o CoalesceOpts) (CoalesceReport, error) {
	out := CoalesceReport{
		Opts:         o,
		MsgReduction: map[string]float64{},
		Speedup:      map[string]float64{},
	}
	record := func(workload string, images int, off, on CoalesceRow) {
		out.Rows = append(out.Rows, off, on)
		if on.MsgsSent > 0 {
			out.MsgReduction[workload] = float64(off.MsgsSent) / float64(on.MsgsSent)
		}
		if on.VirtualTime > 0 {
			out.Speedup[workload] = float64(off.VirtualTime) / float64(on.VirtualTime)
		}
	}

	for _, p := range o.Cores {
		var rows [2]CoalesceRow
		for i, coal := range []caf.Coalescing{{}, o.Coalescing.fabric()} {
			cfg := ra.DefaultConfig(ra.FunctionShipping)
			cfg.LocalTableBits = o.LocalTableBits
			cfg.BunchSize = o.BunchSize
			res, err := ra.Run(caf.Config{Images: p, Seed: o.Seed, Fabric: caf.FabricConfig{Coalescing: coal}}, cfg)
			if err != nil {
				return out, fmt.Errorf("coalesce ra p=%d coal=%v: %w", p, coal.Enabled(), err)
			}
			if res.Errors != 0 {
				return out, fmt.Errorf("coalesce ra p=%d coal=%v: %d table errors — coalescing changed results", p, coal.Enabled(), res.Errors)
			}
			rows[i] = rowFromReport("randomaccess-fs", p, coal.Enabled(), res.Report)
			rows[i].GUPS = res.GUPS
			rows[i].VirtualTime = res.Time.Seconds()
		}
		record("randomaccess-fs", p, rows[0], rows[1])
	}

	f12 := DefaultFig12()
	f12.Iters = o.Fig12Iters
	f12.Seed = o.Seed
	for _, p := range o.Fig12Cores {
		var rows [2]CoalesceRow
		for i, coal := range []caf.Coalescing{{}, o.Coalescing.fabric()} {
			rep, err := fig12Run(f12, p, variantCofence, coal)
			if err != nil {
				return out, fmt.Errorf("coalesce fig12 p=%d coal=%v: %w", p, coal.Enabled(), err)
			}
			rows[i] = rowFromReport("cofence-fig12", p, coal.Enabled(), rep)
		}
		record("cofence-fig12", p, rows[0], rows[1])
	}
	return out, nil
}
