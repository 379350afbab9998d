// Package load is the open-loop traffic generator and SLO harness: it
// turns the simulated machine from a batch HPC kernel host into a
// request-serving system under measurement.
//
// Three pieces compose:
//
//   - Arrivals streams a fully seeded arrival schedule — Poisson or
//     bursty MMPP inter-arrivals, keyed requests, read/write mix —
//     merging the per-client streams in (At, Client) order as far as
//     the request a client takes. Every request is a pure function of
//     the config, whatever order the clients take in, so the stream is
//     byte-identical at any GOMAXPROCS by construction; Schedule drains
//     it into a slice.
//   - Drive runs an open-loop client event loop on one image, taking
//     its requests from the run's one stream: requests are issued at
//     their scheduled virtual times whether or not earlier ones
//     completed (no coordinated omission), completions are polled
//     through the continuation API, and requests stranded on an image
//     declared dead are failed with typed errors instead of hanging. The
//     loop wakes on tick boundaries only while something can happen
//     there.
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

// ArrivalConfig parameterizes an arrival stream. Zero values of the optional
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

// Arrivals is one run's arrival schedule as a stream: the requests
// Schedule returns, generated while the run consumes them. A client
// peeks at the arrival time of its next request and takes the request
// when it issues it, so the load state of a run is one stream per
// client plus the requests merged but not yet taken, not the whole
// schedule.
//
// Each client's stream is drawn lazily, one request ahead, and the
// stream heads are merged through a min-heap on (At, Client), which
// assigns Seq. A client never ties with itself, so that key is a total
// order and the merge emits exactly what a stable sort of the
// concatenated streams would. Every client draws from its own RNG in its
// own order (gap, key, write), so neither the interleaving of the draws
// across clients nor the order the clients take in changes a byte: the
// merge runs only as far as the request a client takes, and the
// requests it merges for other clients wait in a ring by Seq until
// their clients take them.
//
// Arrivals is not safe for concurrent use; the engine serializes the
// client procs that share one.
type Arrivals struct {
	cfg     ArrivalConfig
	streams []clientStream // by client
	heads   streamHeap     // the streams with a request not yet merged
	merged  int            // the Seq the merge assigns next

	// ring holds the merged requests in [lo, merged), by Seq modulo its
	// power-of-two length; every one before lo is taken. A client's
	// waiting requests are linked in Seq order from its stream's qHead.
	ring   []waiting
	lo     int
	hiRing int // high-water mark of merged - lo

	first, last caf.Time // the schedule's first and last arrival
}

// waiting is a merged request in the ring.
type waiting struct {
	r     Request
	next  int // Seq of the same client's next waiting request, or -1
	taken bool
}

// clientStream is one client's arrival stream: its generator, the drawn
// but not yet merged head, how many requests are still to be merged
// (the head included), and the merged requests waiting for the client.
type clientStream struct {
	arrivalGen
	head         Request
	left         int
	qHead, qTail int // first and last waiting Seq; qHead is -1 for none
}

// NewArrivals starts the arrival stream of cfg. Equal configs produce
// byte-identical streams on any host or GOMAXPROCS.
func NewArrivals(cfg ArrivalConfig) *Arrivals {
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
	a := &Arrivals{
		cfg:     cfg,
		streams: make([]clientStream, cfg.Clients),
		heads:   make(streamHeap, 0, cfg.Clients),
	}
	perClient := cfg.Rate / float64(cfg.Clients)
	for c := range a.streams {
		s := &a.streams[c]
		s.qHead, s.qTail = -1, -1
		s.left = a.quota(c)
		if s.left == 0 {
			continue
		}
		// One private stream per client, derived from (Seed, client)
		// with mixing constants distinct from the engine's DeriveRand,
		// so load randomness never aliases runtime randomness.
		rng := rand.New(rand.NewSource(cfg.Seed*0xBF58476D ^ int64(c+1)*0x94D049BB ^ 0x6A09E667))
		s.arrivalGen = newArrivalGen(cfg, perClient, rng)
		s.head = Request{Client: c, At: cfg.Start}
		s.draw(cfg)
		a.heads = append(a.heads, s)
	}
	for i := len(a.heads)/2 - 1; i >= 0; i-- {
		a.heads.down(i)
	}
	if len(a.heads) > 0 {
		a.first = a.heads[0].head.At
	}
	return a
}

// Schedule returns the whole arrival schedule of cfg: its stream,
// drained. It is a pure function of cfg. Arrivals are in (At, Client)
// order with Seq assigned in that order; each client's own arrivals are
// strictly increasing in time.
func Schedule(cfg ArrivalConfig) []Request {
	a := NewArrivals(cfg)
	all := make([]Request, a.cfg.Requests)
	for i := range all {
		all[i] = a.merge()
	}
	return all
}

// quota is how many of the schedule's requests client issues: an even
// split, the remainder going to the lowest clients.
func (a *Arrivals) quota(client int) int {
	n := a.cfg.Requests / a.cfg.Clients
	if client < a.cfg.Requests%a.cfg.Clients {
		n++
	}
	return n
}

// Peek returns the arrival time of client's next request, and false
// once the client has taken all of its requests. It merges nothing: a
// client's arrival times are its own stream's.
func (a *Arrivals) Peek(client int) (caf.Time, bool) {
	s := &a.streams[client]
	switch {
	case s.qHead >= 0:
		return a.slot(s.qHead).r.At, true
	case s.left > 0:
		return s.head.At, true
	}
	return 0, false
}

// Take returns client's next request, merging the streams as far as it.
// It panics when the client has taken all of its requests.
func (a *Arrivals) Take(client int) Request {
	s := &a.streams[client]
	for s.qHead < 0 {
		if s.left == 0 {
			panic(fmt.Sprintf("load: client %d took all %d of its requests", client, a.quota(client)))
		}
		r := a.merge()
		if r.Client == client && r.Seq == a.lo {
			// Nothing waits before it: it never enters the ring.
			a.lo++
			return r
		}
		a.wait(r)
	}
	w := a.slot(s.qHead)
	s.qHead = w.next
	w.taken = true
	for a.lo < a.merged && a.slot(a.lo).taken {
		a.lo++
	}
	return w.r
}

// Span returns the schedule's first and last arrival times (zeros for
// an empty schedule). The last is known once the merge has emitted every
// request; Span runs it to the end first if a client has not taken all
// of its requests, so a client image that died early does not shorten
// the span.
func (a *Arrivals) Span() (first, last caf.Time) {
	for a.merged < a.cfg.Requests {
		a.wait(a.merge())
	}
	return a.first, a.last
}

// merge emits the next request of the schedule and draws its client's
// next head.
func (a *Arrivals) merge() Request {
	s := a.heads[0]
	r := s.head
	r.Seq = a.merged
	a.merged++
	if a.merged == a.cfg.Requests {
		a.last = r.At
	}
	if s.left--; s.left > 0 {
		s.draw(a.cfg)
	} else {
		last := len(a.heads) - 1
		a.heads[0], a.heads = a.heads[last], a.heads[:last]
	}
	a.heads.down(0)
	return r
}

// wait puts a merged request in the ring, at the end of its client's
// waiting list.
func (a *Arrivals) wait(r Request) {
	n := r.Seq + 1 - a.lo
	if n > len(a.ring) {
		a.grow()
	}
	a.hiRing = max(a.hiRing, n)
	*a.slot(r.Seq) = waiting{r: r, next: -1}
	s := &a.streams[r.Client]
	if s.qHead < 0 {
		s.qHead = r.Seq
	} else {
		a.slot(s.qTail).next = r.Seq
	}
	s.qTail = r.Seq
}

// slot returns seq's place in the ring.
func (a *Arrivals) slot(seq int) *waiting { return &a.ring[seq&(len(a.ring)-1)] }

// grow doubles the ring (its first length is four slots per client),
// keeping each merged request at its Seq.
func (a *Arrivals) grow() {
	old := a.ring
	a.ring = make([]waiting, max(2*len(old), ringLen(4*a.cfg.Clients)))
	for seq := a.lo; seq < a.merged-1; seq++ {
		*a.slot(seq) = old[seq&(len(old)-1)]
	}
}

// ringLen is the smallest power of two ≥ n.
func ringLen(n int) int {
	l := 1
	for l < n {
		l <<= 1
	}
	return l
}

// draw replaces the head with the client's next request, drawing its
// gap, key and write flag in that order.
func (s *clientStream) draw(cfg ArrivalConfig) {
	s.head.At = s.next(s.head.At)
	s.head.Key = uint64(s.rng.Int63n(int64(cfg.Keys)))
	s.head.Write = s.rng.Float64() < cfg.WriteFrac
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

func newArrivalGen(cfg ArrivalConfig, rate float64, rng *rand.Rand) arrivalGen {
	g := arrivalGen{kind: cfg.Kind, rng: rng, rate: rate}
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
