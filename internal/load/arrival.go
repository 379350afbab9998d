// Package load is the open-loop traffic generator and SLO harness: it
// turns the simulated machine from a batch HPC kernel host into a
// request-serving system under measurement.
//
// Three pieces compose:
//
//   - Schedule pre-generates a fully seeded arrival schedule — Poisson
//     or bursty MMPP inter-arrivals, keyed requests, read/write mix —
//     as a pure function of its config, merging the per-client streams
//     in (At, Client) order. The schedule exists before the simulation
//     starts, so it is byte-identical at any GOMAXPROCS by construction.
//   - Drive runs an open-loop client event loop on one image, reading
//     the shared schedule in place: requests are issued at their
//     scheduled virtual times whether or not earlier ones completed (no
//     coordinated omission), completions are polled through the
//     continuation API, and requests stranded on an image declared dead
//     are failed with typed errors instead of hanging. The loop wakes
//     on tick boundaries only while something can happen there.
//   - Collector + Histogram accumulate per-request latencies into a
//     deterministic log-linear histogram and reduce them to an SLO
//     report (p50/p99/p999, goodput, failure accounting) whose Digest
//     is pinned bit-for-bit by the golden suite. Every update also
//     feeds the PR 6 metrics registry when Config.Metrics is on.
//
// Determinism contract: everything in this package mutates state only
// at engine points (proc bodies, completion continuations), and every
// float that reaches an exported artifact is derived from virtual-time
// integers. Same seed ⇒ byte-identical schedule and SLO report at any
// GOMAXPROCS — the engine's determinism contract extends to the load
// subsystem.
package load

import (
	"fmt"
	"math"
	"math/rand"

	caf "caf2go"
)

// ArrivalKind selects the arrival process.
type ArrivalKind int

const (
	// Poisson is the memoryless open-loop baseline: exponential
	// inter-arrival gaps at the configured rate.
	Poisson ArrivalKind = iota
	// MMPP is a two-state Markov-modulated Poisson process: the
	// generator alternates between a bursty ON state (Burst× the base
	// rate) and a quiet OFF state, with exponentially distributed
	// dwell times. Time-averaged rate still matches Rate when the
	// burst/dwell geometry allows it.
	MMPP
)

func (k ArrivalKind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case MMPP:
		return "mmpp"
	}
	return "unknown"
}

// ArrivalConfig parameterizes Schedule. Zero values of the optional
// fields get defaults; Clients, Requests, Rate, and Keys are required.
type ArrivalConfig struct {
	Kind ArrivalKind
	// Seed drives the generator's private RNG streams (one per client,
	// derived deterministically; independent of the engine's streams).
	Seed int64
	// Clients is the number of load-generator images; each arrival is
	// assigned to one.
	Clients int
	// Requests is the total request count across all clients.
	Requests int
	// Rate is the aggregate offered load in requests per virtual
	// second, split evenly across clients.
	Rate float64
	// Keys sizes the key space; each request draws a uniform key.
	Keys int
	// WriteFrac is the probability a request is a write (0 = all
	// reads).
	WriteFrac float64
	// Start offsets the first possible arrival, leaving room for the
	// program's setup barrier (default 20µs).
	Start caf.Time
	// Burst is the MMPP ON-state rate multiplier (default 4).
	Burst float64
	// OnMean / OffMean are the MMPP mean dwell times in the bursty and
	// quiet states (defaults 100µs / 300µs).
	OnMean  caf.Time
	OffMean caf.Time
}

func (c ArrivalConfig) withDefaults() ArrivalConfig {
	if c.Start <= 0 {
		c.Start = 20 * caf.Microsecond
	}
	if c.Burst <= 0 {
		c.Burst = 4
	}
	if c.OnMean <= 0 {
		c.OnMean = 100 * caf.Microsecond
	}
	if c.OffMean <= 0 {
		c.OffMean = 300 * caf.Microsecond
	}
	return c
}

// Request is one scheduled arrival.
type Request struct {
	// Seq is the request's global index in schedule order.
	Seq int
	// Client is the issuing generator's index in [0, Clients).
	Client int
	// Key selects the shard and slot the request touches.
	Key uint64
	// Write marks a mutating request.
	Write bool
	// At is the scheduled arrival time. Open-loop latency is measured
	// from At, not from the moment the client got around to issuing —
	// queueing delay in an overloaded client counts against the SLO.
	At caf.Time
}

// Schedule pre-generates the full arrival schedule. It is a pure
// function of cfg: equal configs produce byte-identical schedules on
// any host or GOMAXPROCS. Arrivals are in (At, Client) order with Seq
// assigned in that order; each client's own arrivals are strictly
// increasing in time.
//
// Each client's stream is drawn lazily, one request ahead, and the k
// stream heads are merged through a min-heap on (At, Client). A client
// never ties with itself, so that key is a total order and the merge
// emits exactly what a stable sort of the concatenated streams would.
// Every client draws from its own RNG in its own order (gap, key,
// write), so interleaving the draws across clients changes no byte.
func Schedule(cfg ArrivalConfig) []Request {
	cfg = cfg.withDefaults()
	if cfg.Clients < 1 {
		panic("load: ArrivalConfig.Clients must be ≥ 1")
	}
	if cfg.Requests < 0 {
		panic("load: ArrivalConfig.Requests must be ≥ 0")
	}
	if cfg.Rate <= 0 {
		panic("load: ArrivalConfig.Rate must be > 0")
	}
	if cfg.Keys < 1 {
		panic("load: ArrivalConfig.Keys must be ≥ 1")
	}
	perClient := cfg.Rate / float64(cfg.Clients)
	base, rem := cfg.Requests/cfg.Clients, cfg.Requests%cfg.Clients
	streams := make([]clientStream, cfg.Clients)
	heads := make(streamHeap, 0, cfg.Clients)
	for c := range streams {
		s := &streams[c]
		s.left = base
		if c < rem {
			s.left++
		}
		if s.left == 0 {
			continue
		}
		// One private stream per client, derived from (Seed, client)
		// with mixing constants distinct from the engine's DeriveRand,
		// so load randomness never aliases runtime randomness.
		rng := rand.New(rand.NewSource(cfg.Seed*0xBF58476D ^ int64(c+1)*0x94D049BB ^ 0x6A09E667))
		s.gen = newArrivalGen(cfg, perClient, rng)
		s.head = Request{Client: c, At: cfg.Start}
		s.draw(cfg)
		heads = append(heads, s)
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		heads.down(i)
	}
	all := make([]Request, cfg.Requests)
	for i := range all {
		s := heads[0]
		all[i] = s.head
		all[i].Seq = i
		if s.left > 0 {
			s.draw(cfg)
		} else {
			last := len(heads) - 1
			heads[0], heads = heads[last], heads[:last]
		}
		heads.down(0)
	}
	return all
}

// clientStream is one client's arrival stream during the merge: its
// generator, the drawn but not yet emitted head, and how many requests
// are still to be drawn.
type clientStream struct {
	gen  *arrivalGen
	head Request
	left int
}

// draw replaces the head with the client's next request, drawing its
// gap, key and write flag in that order.
func (s *clientStream) draw(cfg ArrivalConfig) {
	s.head.At = s.gen.next(s.head.At)
	s.head.Key = uint64(s.gen.rng.Int63n(int64(cfg.Keys)))
	s.head.Write = s.gen.rng.Float64() < cfg.WriteFrac
	s.left--
}

// streamHeap is a binary min-heap of stream heads on (At, Client).
type streamHeap []*clientStream

func (h streamHeap) less(i, j int) bool {
	a, b := &h[i].head, &h[j].head
	return a.At < b.At || (a.At == b.At && a.Client < b.Client)
}

// down sifts the head at i down to its place.
func (h streamHeap) down(i int) {
	for {
		m, l := i, 2*i+1
		if l < len(h) && h.less(l, m) {
			m = l
		}
		if r := l + 1; r < len(h) && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Span returns the schedule's [first, last] arrival times (zeros for an
// empty schedule).
func Span(sched []Request) (first, last caf.Time) {
	if len(sched) == 0 {
		return 0, 0
	}
	return sched[0].At, sched[len(sched)-1].At
}

// arrivalGen draws successive arrival instants for one client.
type arrivalGen struct {
	kind ArrivalKind
	rng  *rand.Rand

	// Poisson rate (also the MMPP time-averaged target).
	rate float64

	// MMPP state machine.
	on         bool
	switchAt   caf.Time
	rateOn     float64
	rateOff    float64
	onMean     caf.Time
	offMean    caf.Time
	haveSwitch bool
}

func newArrivalGen(cfg ArrivalConfig, rate float64, rng *rand.Rand) *arrivalGen {
	g := &arrivalGen{kind: cfg.Kind, rng: rng, rate: rate}
	if cfg.Kind == MMPP {
		g.onMean, g.offMean = cfg.OnMean, cfg.OffMean
		pOn := g.onMean.Seconds() / (g.onMean + g.offMean).Seconds()
		g.rateOn = cfg.Burst * rate
		// Solve rateOn·pOn + rateOff·(1-pOn) = rate for the quiet-state
		// rate; clamp at zero when the burst geometry oversubscribes
		// the ON state (time-averaged rate then falls below Rate, which
		// the SLO report surfaces as the measured OfferedRPS anyway).
		g.rateOff = (rate - g.rateOn*pOn) / (1 - pOn)
		if g.rateOff < 0 {
			g.rateOff = 0
		}
	}
	return g
}

// expGap draws an exponential gap with the given rate (events per
// second), quantized up to ≥ 1ns so per-client arrival times are
// strictly increasing.
func expGap(rng *rand.Rand, rate float64) caf.Time {
	g := -math.Log(1-rng.Float64()) / rate // seconds
	ns := caf.Time(math.Ceil(g * 1e9))
	if ns < 1 {
		ns = 1
	}
	return ns
}

// next returns the first arrival instant strictly after t.
func (g *arrivalGen) next(t caf.Time) caf.Time {
	if g.kind != MMPP {
		return t + expGap(g.rng, g.rate)
	}
	if !g.haveSwitch {
		// Start quiet; the first burst begins one OFF dwell in.
		g.on = false
		g.switchAt = t + expGap(g.rng, 1/g.offMean.Seconds())
		g.haveSwitch = true
	}
	for {
		rate := g.rateOff
		if g.on {
			rate = g.rateOn
		}
		if rate > 0 {
			gap := expGap(g.rng, rate)
			if t+gap < g.switchAt {
				return t + gap
			}
		}
		// No arrival before the state flips: jump to the switch point
		// and redraw in the new state (memoryless, so restarting the
		// exponential clock is exact).
		t = g.switchAt
		g.on = !g.on
		mean := g.offMean
		if g.on {
			mean = g.onMean
		}
		g.switchAt = t + expGap(g.rng, 1/mean.Seconds())
	}
}

// String renders a request for diagnostics.
func (r Request) String() string {
	kind := "r"
	if r.Write {
		kind = "w"
	}
	return fmt.Sprintf("req{#%d c%d %s key=%d at=%v}", r.Seq, r.Client, kind, r.Key, r.At)
}
