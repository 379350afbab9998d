package load

import (
	"fmt"
	"slices"
	"strings"

	caf "caf2go"
	"caf2go/internal/failure"
	"caf2go/internal/metrics"
	"caf2go/internal/path"
)

// pendReq is one issued-but-unfinished request.
type pendReq struct {
	r      Request
	client int // issuing image rank
	target int // image rank whose death strands the request
}

// pendSlot is a place in the collector's ring of pending requests.
type pendSlot struct {
	pendReq
	present bool
}

// Collector is the shared SLO accumulator for one run: one instance is
// captured by every client image's closure. All methods are called from
// proc bodies or completion continuations, which the engine serializes
// on the admission strand (the same shared-closure discipline the
// worksteal example relies on), so no locking is needed and every
// update lands in deterministic engine order.
type Collector struct {
	op   string
	hist *Histogram

	// pend holds the pending requests in [pendLo, pendHi), by Seq modulo
	// its power-of-two length, with pendLo's present unless the window is
	// empty: SettleDead reads it in seq order over that window.
	pend           []pendSlot
	pendLo, pendHi int
	hiPend         int           // high-water mark of pendHi - pendLo
	perClient      []clientCount // by issuing image rank

	arr       *Arrivals // the run's requests
	issued    int64
	completed int64
	failed    int64
	failovers int64
	replayed  int64
	lostTo    []int64 // failed requests by blamed dead rank

	lastDone caf.Time // completion time of the final settled request

	ins *instruments // nil with metrics off
}

// clientCount is one issuing image's request accounting.
type clientCount struct {
	out     int   // issued and not yet settled or withdrawn for replay
	settled int64 // Done, Fail and replay withdrawals: Drive's progress
}

// counts returns client's accounting (zero before its first issue).
func (c *Collector) counts(client int) clientCount {
	if client < len(c.perClient) {
		return c.perClient[client]
	}
	return clientCount{}
}

// count returns client's accounting for update, growing the table to
// cover the rank.
func (c *Collector) count(client int) *clientCount {
	if client >= len(c.perClient) {
		c.perClient = append(c.perClient, make([]clientCount, client+1-len(c.perClient))...)
	}
	return &c.perClient[client]
}

// settle moves one of client's requests from outstanding to settled.
func (c *Collector) settle(client int) {
	cc := c.count(client)
	cc.out--
	cc.settled++
}

// instruments are the registry instruments the per-request paths update,
// each resolved by name at its first touch (a family still exists only
// if something touched it) and by pointer from then on. They sit behind
// one pointer so a metrics-off collector is the size it always was.
type instruments struct {
	issued, completed *metrics.Counter
	latency           *metrics.Histogram
}

// cached returns the instrument cache of a metrics-on run.
func (c *Collector) cached() *instruments {
	if c.ins == nil {
		c.ins = new(instruments)
	}
	return c.ins
}

// NewCollector builds a collector for the requests of arr.
func NewCollector(op string, arr *Arrivals) *Collector {
	return &Collector{op: op, hist: NewHistogram(), arr: arr}
}

// pending returns seq's slot if seq is pending, else nil.
func (c *Collector) pending(seq int) *pendSlot {
	if seq < c.pendLo || seq >= c.pendHi {
		return nil
	}
	if p := &c.pend[seq&(len(c.pend)-1)]; p.present {
		return p
	}
	return nil
}

// hold widens the pending window to cover seq and returns its slot,
// doubling the ring when the window outgrows it.
func (c *Collector) hold(seq int) *pendSlot {
	lo, hi := seq, seq+1
	if c.pendLo < c.pendHi {
		lo, hi = min(c.pendLo, lo), max(c.pendHi, hi)
	}
	if hi-lo > len(c.pend) {
		old := c.pend
		c.pend = make([]pendSlot, max(2*len(old), ringLen(hi-lo), ringLen(4*c.arr.cfg.Clients)))
		for s := c.pendLo; s < c.pendHi; s++ {
			c.pend[s&(len(c.pend)-1)] = old[s&(len(old)-1)]
		}
	}
	c.pendLo, c.pendHi = lo, hi
	c.hiPend = max(c.hiPend, hi-lo)
	return &c.pend[seq&(len(c.pend)-1)]
}

// release empties a pending request's slot, moving pendLo to the next
// pending request.
func (c *Collector) release(p *pendSlot) {
	p.present = false
	for c.pendLo < c.pendHi && !c.pend[c.pendLo&(len(c.pend)-1)].present {
		c.pendLo++
	}
}

// Issued records that client (an image rank) issued r toward target.
// The target is remembered so SettleDead can fail or replay the request
// if target dies while the request is still outstanding.
func (c *Collector) Issued(m *caf.Machine, r Request, client, target int) {
	*c.hold(r.Seq) = pendSlot{pendReq{r: r, client: client, target: target}, true}
	c.count(client).out++
	c.issued++
	// First issue opens the request's critical path (claiming client-side
	// queueing since the scheduled arrival); a re-issue after a failover
	// claims the replay gap instead.
	m.PathTracker().Begin(r.Seq, client, r.At, m.Engine().Now())
	if met := m.Metrics(); met != nil {
		ins := c.cached()
		if ins.issued == nil {
			ins.issued = met.Counter("load_requests_total", "requests issued by the load generator")
		}
		ins.issued.Add(client, 1)
	}
}

// Done settles seq as completed at virtual time now; latency is
// measured from the request's *scheduled* arrival, so client-side
// queueing under overload counts against the SLO (no coordinated
// omission). Returns false if seq was already settled — the first
// outcome wins, which keeps the race between a late reply and a
// death-reconciliation pass deterministic and single-count.
func (c *Collector) Done(m *caf.Machine, now caf.Time, seq int) bool {
	slot := c.pending(seq)
	if slot == nil {
		return false
	}
	p := slot.pendReq
	c.release(slot)
	c.settle(p.client)
	lat := int64(now - p.r.At)
	if lat < 0 {
		lat = 0
	}
	c.hist.Observe(lat)
	c.completed++
	// Close the critical path at the same instant the histogram observes,
	// so the bucket decomposition sums to exactly this latency.
	m.PathTracker().Finish(seq, now)
	if now > c.lastDone {
		c.lastDone = now
	}
	if met := m.Metrics(); met != nil {
		ins := c.cached()
		if ins.completed == nil {
			ins.completed = met.Counter("load_requests_completed_total", "requests completed by the service")
			ins.latency = met.Histogram("load_request_latency_ns", "request latency from scheduled arrival to completion (ns)")
		}
		ins.completed.Add(p.client, 1)
		ins.latency.Observe(p.client, lat)
	}
	return true
}

// Fail settles seq as failed with a typed error. Failed requests do not
// enter the latency histogram; they are accounted per blamed rank.
func (c *Collector) Fail(m *caf.Machine, now caf.Time, seq int, err *caf.ImageFailedError) bool {
	slot := c.pending(seq)
	if slot == nil {
		return false
	}
	client := slot.client
	c.release(slot)
	c.settle(client)
	c.failed++
	m.PathTracker().Abort(seq)
	if err != nil {
		if err.Rank >= len(c.lostTo) {
			c.lostTo = append(c.lostTo, make([]int64, err.Rank+1-len(c.lostTo))...)
		}
		c.lostTo[err.Rank]++
	}
	if now > c.lastDone {
		c.lastDone = now
	}
	m.Metrics().Counter("load_requests_failed_total", "requests failed with a typed ImageFailedError").Add(client, 1)
	return true
}

// FailDead settles seq as lost to the declared-dead rank, building the
// typed error from the detector's declaration time.
func (c *Collector) FailDead(m *caf.Machine, now caf.Time, seq, rank int) bool {
	at, _ := m.ImageDeadAt(rank)
	return c.Fail(m, now, seq, &caf.ImageFailedError{Rank: rank, At: at, Op: c.op})
}

// Failover records that a request was redirected away from a dead
// primary to a surviving replica.
func (c *Collector) Failover(m *caf.Machine, client int) {
	c.failovers++
	m.Metrics().Counter("load_failovers_total", "requests redirected from a dead primary to a live replica").Add(client, 1)
}

// Outstanding returns the issuing image's in-flight request count.
func (c *Collector) Outstanding(client int) int { return c.counts(client).out }

// SettleDead applies p to every outstanding request of client whose
// target image has died, in seq order, and returns the requests it
// withdrew for re-issue (DeadReplay only).
//
// DeadFail fails each request whose target is declared dead. Once a rank
// is declared, nothing sent to it can complete (the fabric abandons
// traffic to dead NICs and the runtime drops its late replies), so this
// is safe — and it is the only way to settle a request whose reply was
// lost in the crash window between handler execution and reply delivery.
//
// DeadReplay withdraws each request whose target's death has been
// *committed* by the replication epoch agreement. That is not a loss:
// the caller re-issues it against the promoted backup, where the
// replicated coarray's applied ledger makes the replay exactly-once even
// if the original request executed before the crash. Requests to a
// merely declared dead rank stay pending — routing hasn't moved yet, so
// a replay would have nowhere safe to go.
func (c *Collector) SettleDead(m *caf.Machine, client int, p DeadPolicy) []Request {
	if p == DeadWait || c.Outstanding(client) == 0 || !m.AnyImageDead() {
		return nil
	}
	dead := m.ImageDead
	if p == DeadReplay {
		dead = m.DeathCommitted
	}
	var seqs []int
	for seq := c.pendLo; seq < c.pendHi; seq++ {
		if p := c.pending(seq); p != nil && p.client == client && dead(p.target) {
			seqs = append(seqs, seq)
		}
	}
	if len(seqs) == 0 {
		return nil
	}
	now := m.Engine().Now()
	if p == DeadFail {
		for _, seq := range seqs {
			c.FailDead(m, now, seq, c.pending(seq).target)
		}
		return nil
	}
	out := make([]Request, 0, len(seqs))
	pt := m.PathTracker()
	for _, seq := range seqs {
		p := c.pending(seq)
		out = append(out, p.r)
		c.release(p)
		c.settle(client)
		c.replayed++
		// Time since the request's last progress was spent waiting for
		// the epoch agreement to commit the target's death.
		pt.Claim(path.ReqCtx(seq), path.EpochStall, now)
	}
	m.Metrics().Counter("load_requests_replayed_total", "in-flight requests re-issued against a promoted backup after an epoch commit").Add(client, int64(len(seqs)))
	return out
}

// Settled reports whether every scheduled request has a final outcome.
func (c *Collector) Settled() bool { return c.completed+c.failed == c.requests() }

// requests is the number of requests the run schedules.
func (c *Collector) requests() int64 { return int64(c.arr.cfg.Requests) }

// SLO is the end-of-run service-level report. All fields derive from
// virtual-time integers, so the report — including its float rates — is
// bit-identical for a given seed at any GOMAXPROCS.
type SLO struct {
	Requests  int64
	Completed int64
	Failed    int64
	Failovers int64
	// Replayed counts requests re-issued against a promoted backup
	// after an epoch commit (0 with replication off).
	Replayed int64 `json:",omitempty"`
	// LostTo counts failed requests by the dead rank blamed: LostTo[r]
	// for rank r, up to the highest rank blamed.
	LostTo []int64 `json:",omitempty"`
	// Latency quantiles over *completed* requests, measured from
	// scheduled arrival (ns of virtual time).
	P50    caf.Time
	P99    caf.Time
	P999   caf.Time
	MaxLat caf.Time
	MeanNS int64
	// Duration spans first scheduled arrival to last settled outcome.
	Duration caf.Time
	// OfferedRPS is the measured arrival rate over the schedule span;
	// GoodputRPS is completed requests over Duration.
	OfferedRPS float64
	GoodputRPS float64
}

// SLO reduces the collector to its report.
func (c *Collector) SLO() SLO {
	s := SLO{
		Requests:  c.requests(),
		Completed: c.completed,
		Failed:    c.failed,
		Failovers: c.failovers,
		Replayed:  c.replayed,
		P50:       caf.Time(c.hist.Quantile(0.50)),
		P99:       caf.Time(c.hist.Quantile(0.99)),
		P999:      caf.Time(c.hist.Quantile(0.999)),
		MaxLat:    caf.Time(c.hist.Max()),
		MeanNS:    c.hist.Mean(),
	}
	s.LostTo = slices.Clone(c.lostTo)
	// The span is the whole schedule's, even when a client image died
	// before taking all of its requests.
	first, last := c.arr.Span()
	if c.lastDone > first {
		s.Duration = c.lastDone - first
		s.GoodputRPS = float64(s.Completed) / s.Duration.Seconds()
	}
	if span := last - first; span > 0 && s.Requests > 1 {
		s.OfferedRPS = float64(s.Requests-1) / span.Seconds()
	}
	return s
}

// ExportMetrics publishes the SLO digest into the machine's metrics
// registry, so profile exports and benchjson metrics snapshots carry
// the service-level numbers alongside the runtime's own counters. The
// gauges are machine-global, keyed to image 0; rates are scaled to
// integer milli-units so the export stays bit-identical (the registry
// stores int64). A disabled registry ignores the writes.
func (s SLO) ExportMetrics(m *caf.Machine) {
	met := m.Metrics()
	met.Gauge("slo_requests", "requests scheduled by the load generator").Set(0, s.Requests)
	met.Gauge("slo_completed", "requests completed within the run").Set(0, s.Completed)
	met.Gauge("slo_failed", "requests settled with a typed failure").Set(0, s.Failed)
	met.Gauge("slo_failovers", "requests redirected to a surviving replica").Set(0, s.Failovers)
	met.Gauge("slo_replayed", "requests re-issued after an epoch commit").Set(0, s.Replayed)
	met.Gauge("slo_p50_ns", "median request latency from scheduled arrival (ns)").Set(0, int64(s.P50))
	met.Gauge("slo_p99_ns", "p99 request latency from scheduled arrival (ns)").Set(0, int64(s.P99))
	met.Gauge("slo_p999_ns", "p999 request latency from scheduled arrival (ns)").Set(0, int64(s.P999))
	met.Gauge("slo_max_ns", "max request latency from scheduled arrival (ns)").Set(0, int64(s.MaxLat))
	met.Gauge("slo_mean_ns", "mean request latency from scheduled arrival (ns)").Set(0, s.MeanNS)
	met.Gauge("slo_goodput_millirps", "completed requests per virtual second, milli-units").Set(0, int64(s.GoodputRPS*1000))
	met.Gauge("slo_offered_millirps", "offered arrival rate, milli-units").Set(0, int64(s.OfferedRPS*1000))
	var lost int64
	for _, n := range s.LostTo {
		lost += n
	}
	met.Gauge("slo_lost", "failed requests blamed on dead images").Set(0, lost)
}

// Digest renders the report as one canonical line — the bit-identity
// token pinned by golden and chaos tests.
func (s SLO) Digest() string {
	var parts []string
	for r, n := range s.LostTo {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("r%d:%d", r, n))
		}
	}
	lost := strings.Join(parts, ",")
	line := fmt.Sprintf(
		"req=%d done=%d fail=%d over=%d p50=%d p99=%d p999=%d max=%d mean=%d dur=%d off=%.6g good=%.6g lost=[%s]",
		s.Requests, s.Completed, s.Failed, s.Failovers,
		int64(s.P50), int64(s.P99), int64(s.P999), int64(s.MaxLat), s.MeanNS,
		int64(s.Duration), s.OfferedRPS, s.GoodputRPS, lost)
	// Appended only when replays happened, so replication-off digests —
	// pinned byte-for-byte by pre-replication goldens — are unchanged.
	if s.Replayed > 0 {
		line += fmt.Sprintf(" replay=%d", s.Replayed)
	}
	return line
}

// Protect runs fn, converting a failure.Abort unwind from any blocking
// primitive (lock, RPC get/put, event wait) into a returned typed error
// instead of letting it take down the whole simulated process. This is
// what lets a per-request worker proc fail *one request* with an
// ImageFailedError while the client image keeps serving the rest —
// fail-stop at request granularity rather than image granularity.
func Protect(fn func()) (ferr *caf.ImageFailedError) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if ab, ok := r.(failure.Abort); ok {
			ferr = ab.Err
			return
		}
		panic(r)
	}()
	fn()
	return nil
}
