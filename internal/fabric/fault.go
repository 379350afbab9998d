package fabric

import "caf2go/internal/sim"

// FaultPlan configures deterministic fault injection: it turns the fabric
// from an idealized exactly-once transport into a GASNet-class lossy one
// where packets (data and acks alike) can be dropped, duplicated, delayed
// out of order, receivers can stall, and whole NICs can die. All
// decisions flow from a private RNG derived from the engine seed, so a
// failing run replays bit-for-bit from its seed.
//
// Attaching a FaultPlan also switches the fabric onto its reliability
// protocol (see fabric.go): per-(src,dst) sequence numbers, receiver-side
// dedup, and ack-timeout retransmission with capped exponential backoff
// (the timeout derived from the cost model, backoffCap, maxAttempts).
// The layers above (rt, core, collect) observe exactly-once delivery and
// at-most-once acknowledgement either way — which is precisely what keeps
// the finish plane's message-parity counters exact under retransmission.
//
// The zero value injects nothing but still engages the reliability
// protocol, which is useful for testing that the protocol itself is
// behavior-neutral when the network happens to be clean.
type FaultPlan struct {
	// Seed perturbs the fault RNG stream independently of the engine
	// seed, so experiments can vary the fault schedule while holding the
	// workload's randomness fixed (and vice versa).
	Seed int64

	// Drop is the per-transmission loss probability, applied to data
	// messages and delivery acks alike. Lost data is recovered by
	// retransmission; a lost ack is recovered by the retransmit → dedup →
	// re-ack path.
	Drop float64

	// Dup is the per-transmission probability that a message is delivered
	// twice. The receiver's dedup layer drops the extra copy (and re-acks
	// it, in case the first ack was lost).
	Dup float64

	// Jitter is the maximum extra delivery delay added per arrival. Any
	// positive value breaks per-(src,dst) FIFO ordering — as does
	// retransmission itself, which is why a faulty fabric never promises
	// ordered delivery (Config.Ordered).
	Jitter sim.Time

	// StallProb is the per-arrival probability that the receiving
	// endpoint's handler context stalls for Stall before serving it
	// (a transient endpoint stall: OS noise, a descheduled progress
	// thread, a busy NIC handler).
	StallProb float64
	Stall     sim.Time

	// Crash maps an image rank to the virtual time its NIC dies. From
	// that moment the endpoint injects nothing and arriving packets
	// vanish; peers retrying into it abandon their messages at the next
	// ack timeout. Simulated procs on the image keep running — they just
	// never hear from the network again.
	Crash map[int]sim.Time
}

const (
	// maxAttempts caps transmissions per message (first send included).
	// A message still unacked after its last attempt is abandoned: its
	// flow-control credit is released but no completion callback fires,
	// so a finish block supervising it can never terminate — erring on
	// the never-early side of Theorem 1.
	maxAttempts = 16
	// backoffCap caps the exponential backoff at the base timeout <<
	// backoffCap (64x).
	backoffCap = 6
)

// ackTimeout is the plan's base retransmission timeout on cfg's cost
// model, armed at injection: a generous round trip. Injection is excluded
// (the timer is armed at injection time), so it is latency + handler
// occupancy + the ack's return on the same wire, plus the worst extra
// delay the plan can add, doubled for queuing.
func (fp *FaultPlan) ackTimeout(cfg Config) sim.Time {
	return 2*(2*cfg.Latency+cfg.AMOverhead+fp.Jitter+fp.Stall) + 10*sim.Microsecond
}

// roll draws a fault decision. Probabilities ≤ 0 consume no randomness,
// so a plan with a knob disabled leaves the fault stream of the other
// knobs unchanged.
func (f *Fabric) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return f.frng.Float64() < p
}

// jitterDelay draws the extra delivery delay for one arrival.
func (f *Fabric) jitterDelay() sim.Time {
	if f.plan.Jitter <= 0 {
		return 0
	}
	return sim.Time(f.frng.Int63n(int64(f.plan.Jitter) + 1))
}

// crashedNow reports whether rank's NIC is dead at the current virtual
// time.
func (f *Fabric) crashedNow(rank int) bool {
	if f.plan.Crash == nil {
		return false
	}
	t, ok := f.plan.Crash[rank]
	return ok && f.eng.Now() >= t
}

// dedupState tracks which sequence numbers from one peer have already
// been delivered: everything below contig, plus the sparse set above it
// (out-of-order arrivals). The set stays small because retransmission
// keeps the window tight; contig advances as holes fill.
type dedupState struct {
	contig uint64
	seen   map[uint64]struct{}
}

// mark records seq as delivered and reports whether it was new.
func (d *dedupState) mark(seq uint64) bool {
	if seq < d.contig {
		return false
	}
	if _, dup := d.seen[seq]; dup {
		return false
	}
	if d.seen == nil {
		d.seen = make(map[uint64]struct{})
	}
	d.seen[seq] = struct{}{}
	for {
		if _, ok := d.seen[d.contig]; !ok {
			break
		}
		delete(d.seen, d.contig)
		d.contig++
	}
	return true
}
