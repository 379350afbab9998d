package workloads

import (
	"errors"
	"fmt"

	caf "caf2go"
	"caf2go/internal/load"
	"caf2go/internal/sim"
)

// ServiceOpts parameterizes the request-serving workloads (KVService,
// AggService). The first Servers ranks host service state; the rest run
// open-loop load generators driven by internal/load.
type ServiceOpts struct {
	// Servers is the number of server images (default images/2).
	Servers int
	// Requests is the total request count across all clients.
	Requests int
	// Rate is the aggregate offered load in requests per virtual second
	// (default 200k).
	Rate float64
	// Arrival selects the arrival process (default load.Poisson).
	Arrival load.ArrivalKind
	// Keys sizes the key space (default 16 per server).
	Keys int
	// WriteFrac is the write probability for KVService.
	WriteFrac float64
	// Shipping selects function-shipped KV access; false uses
	// lock + get/put one-sided round trips.
	Shipping bool
	// Replicated puts the KV table in a primary-backup ReplCoarray over
	// the server chain: every write is mirrored to the next server, and
	// with cfg.Replication + the failure detector enabled, requests
	// stranded by a crash are *replayed* against the promoted backup
	// after the epoch commit instead of failed — zero lost requests for
	// a single crash per replica group. Requires Shipping (the lock
	// protocol has no owner to mirror from).
	Replicated bool
	// FanOut is AggService's sub-requests per request (default
	// min(3, Servers)).
	FanOut int
	// SvcTime is the per-(sub-)request server compute (default 1µs).
	SvcTime caf.Time
	// Tick is the client poll quantum (default 2µs).
	Tick caf.Time
	// Start offsets the first arrival past the setup barrier
	// (default 20µs).
	Start caf.Time
	// ExpectFailure marks a run whose machine is expected to finish
	// with a typed ImageFailedError (crash scenarios under resilient
	// finish); the error is folded into the Check instead of failing
	// the workload.
	ExpectFailure bool
	// SLOOut, when non-nil, receives the run's SLO report (used by the
	// chaos and bench harnesses, which need numbers, not digests).
	SLOOut *load.SLO
	// ReplOut, when non-nil, receives the machine's recovery accounting
	// (epoch, promotions, agreement rounds) after a Replicated run.
	ReplOut *caf.ReplStats
}

func (o *ServiceOpts) serviceDefaults(images int) (servers, clients int, err error) {
	if o.Servers == 0 {
		o.Servers = images / 2
	}
	servers, clients = o.Servers, images-o.Servers
	if servers < 1 || clients < 1 {
		return 0, 0, fmt.Errorf("service: need ≥1 server and ≥1 client, got %d servers / %d images", servers, images)
	}
	if o.Requests <= 0 {
		o.Requests = 64
	}
	if o.Rate <= 0 {
		o.Rate = 200_000
	}
	if o.Keys <= 0 {
		o.Keys = 16 * servers
	}
	if o.SvcTime <= 0 {
		o.SvcTime = 1 * caf.Microsecond
	}
	if o.Tick <= 0 {
		o.Tick = 2 * caf.Microsecond
	}
	if o.Start <= 0 {
		o.Start = 20 * caf.Microsecond
	}
	return servers, clients, nil
}

// arrivals starts the run's one arrival stream, which every client
// takes its requests from.
func (o ServiceOpts) arrivals(seed int64, clients int) *load.Arrivals {
	return load.NewArrivals(load.ArrivalConfig{
		Kind:      o.Arrival,
		Seed:      seed,
		Clients:   clients,
		Requests:  o.Requests,
		Rate:      o.Rate,
		Keys:      o.Keys,
		WriteFrac: o.WriteFrac,
		Start:     o.Start,
	})
}

// KVService is a sharded key/value service over coarrays: the first
// Servers images each own a table shard (key → server by modulus), the
// remaining images are open-loop clients replaying a seeded arrival
// schedule. Two access protocols, the paper's Fig. 2-vs-Fig. 3 contrast
// recast as a service:
//
//   - Shipping: the client ships the whole get/update as one function
//     to the owning shard; the handler mutates the table locally and
//     ships the value back — two messages, no locks, and the small AMs
//     ride coalescing when enabled.
//   - Locks (one-sided): a per-request worker proc takes the shard's
//     lock, Gets the slot, computes, Puts it back, unlocks — four-plus
//     control-plane round trips per request, with the lock serializing
//     every request to that shard.
//
// Under a FaultPlan crash with the failure detector on, both variants
// settle every request: lost requests fail with typed ImageFailedError
// (issue-time dead check, death reconciliation for replies lost in the
// crash window, Protect-recovered lock/RPC aborts) and the client keeps
// serving — fail-stop at request granularity. The locks variant
// additionally shows why locks and fail-stop compose badly: once any
// image is declared dead, every lock/RPC round trip aborts (the reply
// chain may depend on a dead lock holder), so all post-crash lock
// requests fail typed, while the shipping variant keeps completing
// requests on surviving shards.
func KVService(cfg caf.Config, o ServiceOpts, opts ...RunOpt) (Result, error) {
	servers, clients, err := o.serviceDefaults(cfg.Images)
	if err != nil {
		return Result{}, err
	}
	if o.Replicated {
		if !o.Shipping {
			return Result{}, errors.New("kv: Replicated requires Shipping (the lock protocol has no owner to mirror from)")
		}
		if !cfg.Replication.Enabled {
			return Result{}, errors.New("kv: Replicated requires cfg.Replication.Enabled")
		}
	}
	slots := (o.Keys + servers - 1) / servers
	arr := o.arrivals(cfg.Seed, clients)
	col := load.NewCollector("kv request", arr)
	var readSum int64
	// One free list of request records for every client: a record
	// carries its own client, so any client may reuse any record.
	var free sim.FreeList[kvReq]
	var mach *caf.Machine
	opts = append(opts, CaptureMachine(&mach))

	rep, err := run(cfg, opts, func(img *caf.Image) {
		me := img.Rank()
		var table *caf.Coarray[int64]
		var rtab *caf.ReplCoarray[int64]
		if o.Replicated {
			chain := make([]int, servers)
			for i := range chain {
				chain[i] = i
			}
			rtab = caf.NewReplCoarray[int64](img, nil, slots, chain)
		} else {
			table = caf.NewCoarray[int64](img, nil, slots)
		}
		img.Barrier(nil)
		if me < servers {
			return // shards are passive hosts; handlers run on them via AMs
		}
		m := img.Machine()
		cl := &kvClient{me: me, table: table, col: col, readSum: &readSum, free: &free}

		issueReplicated := func(d *load.Driver, r load.Request) {
			home := int(r.Key % uint64(servers))
			slot := int((r.Key / uint64(servers)) % uint64(slots))
			srv := rtab.Serving(home)
			if srv < 0 {
				// The whole replica group is committed dead: the shard's
				// data is gone and the request fails typed.
				col.Issued(m, r, me, home)
				col.FailDead(m, img.Now(), r.Seq, home)
				return
			}
			col.Issued(m, r, me, srv)
			if srv != home {
				col.Failover(m, me)
			}
			if m.ImageDead(srv) {
				// Declared but not yet committed: routing hasn't moved, so
				// hold the request pending — the DeadReplay pass re-issues it
				// against the promoted backup at the epoch commit.
				return
			}
			seq, key, write := r.Seq, int64(r.Key), r.Write
			img.Spawn(srv, func(s *caf.Image) {
				// Apply routes to whichever copy s serves and is
				// exactly-once per (home, seq): a replayed request whose
				// original executed before the crash gets the mirrored
				// ledger value, not a second application.
				v := rtab.Apply(s, home, seq, slot, func(cur int64) int64 {
					if write {
						return cur + key
					}
					return cur
				})
				s.Spawn(me, func(c *caf.Image) {
					readSum += v
					col.Done(c.Machine(), c.Now(), seq)
				}, caf.WithBytes(16), caf.Inline(0))
			}, caf.WithBytes(24), caf.Inline(o.SvcTime))
		}

		issue := func(d *load.Driver, r load.Request) {
			srv := int(r.Key % uint64(servers))
			slot := int((r.Key / uint64(servers)) % uint64(slots))
			col.Issued(m, r, me, srv)
			if m.ImageDead(srv) {
				col.FailDead(m, img.Now(), r.Seq, srv)
				return
			}
			seq, key, write := r.Seq, int64(r.Key), r.Write
			if o.Shipping {
				q := cl.free.New()
				*q = kvReq{c: cl, seq: seq, slot: slot, key: key, write: write}
				img.SpawnRecord(srv, q, caf.WithBytes(24), caf.Inline(o.SvcTime))
			} else {
				// Per-request worker proc so the lock park doesn't stall
				// the client's issue loop; Protect turns a lock/RPC abort
				// into this request's typed failure.
				img.Spawn(me, func(w *caf.Image) {
					var v int64
					ferr := load.Protect(func() {
						w.Lock(srv, 0)
						var cur [1]int64
						caf.GetInto(w, cur[:], table.Sec(srv, slot, slot+1))
						w.Compute(o.SvcTime)
						v = cur[0]
						if write {
							v += key
							caf.Put(w, table.Sec(srv, slot, slot+1), []int64{v})
						}
						w.Unlock(srv, 0)
					})
					if ferr != nil {
						col.Fail(w.Machine(), w.Now(), seq, ferr)
						return
					}
					readSum += v
					col.Done(w.Machine(), w.Now(), seq)
				})
			}
		}
		if o.Replicated {
			// Replay instead of fail: a committed death re-issues
			// stranded requests rather than failing them.
			load.Drive(img, me-servers, arr, col,
				load.DriveOpts{Tick: o.Tick, OnDead: load.DeadReplay}, issueReplicated)
			return
		}
		load.Drive(img, me-servers, arr, col,
			load.DriveOpts{Tick: o.Tick, OnDead: load.DeadFail}, issue)
	})
	if err != nil {
		return Result{}, err
	}
	slo := col.SLO()
	slo.ExportMetrics(mach)
	if o.SLOOut != nil {
		*o.SLOOut = slo
	}
	if !col.Settled() {
		return Result{}, fmt.Errorf("kv: %d requests never settled (done=%d fail=%d of %d)",
			slo.Requests-slo.Completed-slo.Failed, slo.Completed, slo.Failed, slo.Requests)
	}
	variant := "locks"
	if o.Shipping {
		variant = "shipping"
	}
	if o.Replicated {
		rs := mach.ReplStats()
		if o.ReplOut != nil {
			*o.ReplOut = rs
		}
		return Result{
			Report: rep,
			Check: fmt.Sprintf("kv-replicated readSum=%d epoch=%d promo=%d slo{%s}",
				readSum, rs.Epoch, rs.Promotions, slo.Digest()),
		}, nil
	}
	return Result{
		Report: rep,
		Check:  fmt.Sprintf("kv-%s readSum=%d slo{%s}", variant, readSum, slo.Digest()),
	}, nil
}

// kvClient is what a client's shipped requests share: where they run and
// report, and the run's free list of request records.
type kvClient struct {
	me      int
	table   *caf.Coarray[int64]
	col     *load.Collector
	readSum *int64
	free    *sim.FreeList[kvReq]
}

// kvReq is one request of KVService's shipping path as the record it
// ships: the request to the key's shard and, shipped back as a kvReply,
// the value it read. It comes from the run's free list, and the end of
// the reply's Ship is its last reference, where it goes back.
type kvReq struct {
	c     *kvClient
	seq   int
	slot  int
	key   int64
	v     int64
	write bool
	dead  bool // released under sim.QuarantinePools
}

// kvReply is a request on its way back, shipped as its reply.
type kvReply kvReq

// live panics on a record released under sim.QuarantinePools.
func (q *kvReq) live() {
	if q.dead {
		panic("kv: request record used after its release")
	}
}

// Ship serves the request on its shard and ships the record back.
func (q *kvReq) Ship(s *caf.Image) {
	q.live()
	t := q.c.table.Local(s)
	if q.write {
		t[q.slot] += q.key
	}
	q.v = t[q.slot]
	s.SpawnRecord(q.c.me, (*kvReply)(q), caf.WithBytes(16), caf.Inline(0))
}

// Ship completes the request on its client and releases the record.
func (p *kvReply) Ship(c *caf.Image) {
	q := (*kvReq)(p)
	q.live()
	cl := q.c
	*cl.readSum += q.v
	cl.col.Done(c.Machine(), c.Now(), q.seq)
	*q = kvReq{}
	q.dead = cl.free.Put(q)
}

// AggService is a fan-out/fan-in aggregation service: each request fans
// FanOut sub-queries to distinct server images (a ring starting at the
// key's home shard), the sub-results fan back in through PollSet
// OnGlobalCompletion continuations, and the merged value completes the
// request. The whole serving loop runs inside a resilient finish.
//
// Under an injected crash the service keeps serving: sub-queries headed
// for a declared-dead shard fail over to the next live server in the
// ring (counted in SLO.Failovers); sub-queries already in flight to the
// dead image are abandoned by the fabric, their continuations still
// fire (abandoned ops stamp their terminal stages), and the request
// settles with a typed ImageFailedError only if a sub-result is
// genuinely lost. When a crash did happen, the enclosing resilient
// finish charges off the lost activities and the machine surfaces the
// typed error — set ExpectFailure and the Check pins it.
func AggService(cfg caf.Config, o ServiceOpts, opts ...RunOpt) (Result, error) {
	servers, clients, err := o.serviceDefaults(cfg.Images)
	if err != nil {
		return Result{}, err
	}
	fan := o.FanOut
	if fan <= 0 {
		fan = 3
	}
	if fan > servers {
		fan = servers
	}
	arr := o.arrivals(cfg.Seed, clients)
	col := load.NewCollector("agg request", arr)
	var mergeSum int64
	var mach *caf.Machine
	opts = append(opts, CaptureMachine(&mach))

	rep, err := run(cfg, opts, func(img *caf.Image) {
		me := img.Rank()
		img.Barrier(nil)
		m := img.Machine()
		if me < servers {
			// Servers enter the same finish epoch so the collective
			// termination protocol lines up; their own body is empty —
			// the client-issued sub-queries running here are tracked by
			// the *client's* finish scope.
			img.Finish(nil, func() {})
			return
		}

		issue := func(d *load.Driver, r load.Request) {
			seq, key := r.Seq, r.Key
			base := int(key % uint64(servers))
			col.Issued(m, r, me, base)
			remaining := fan
			var acc int64
			deadRank := -1
			complete := func(now caf.Time) {
				if deadRank >= 0 {
					col.FailDead(m, now, seq, deadRank)
					return
				}
				mergeSum += acc
				col.Done(m, now, seq)
			}
			for i := 0; i < fan; i++ {
				srv := (base + i) % servers
				hops := 0
				for hops < servers && m.ImageDead(srv) {
					srv = (srv + 1) % servers
					hops++
				}
				if m.ImageDead(srv) {
					// Every server is gone; nothing to fail over to.
					if deadRank < 0 {
						deadRank = srv
					}
					remaining--
					continue
				}
				if hops > 0 {
					col.Failover(m, me)
				}
				part := new(int64)
				ok := new(bool)
				target := srv
				sub := img.SpawnHandle(srv, func(s *caf.Image) {
					*part = int64(key&0xffff) * int64(target+1)
					*ok = true
				}, caf.WithBytes(48), caf.Inline(o.SvcTime))
				d.PS.OnGlobalCompletion(sub, func() {
					// Abandoned sub-queries reach global completion too,
					// just without having run; ok distinguishes a computed
					// partial from one lost to the crash.
					if *ok {
						acc += *part
					} else if deadRank < 0 {
						deadRank = target
					}
					remaining--
					if remaining == 0 {
						complete(d.Img.Now())
					}
				})
			}
			if remaining == 0 {
				// All-dead path: settled synchronously at issue time.
				complete(img.Now())
			}
		}
		img.Finish(nil, func() {
			load.Drive(img, me-servers, arr, col, load.DriveOpts{Tick: o.Tick}, issue)
		})
	})

	slo := col.SLO()
	if mach != nil {
		slo.ExportMetrics(mach)
	}
	if o.SLOOut != nil {
		*o.SLOOut = slo
	}
	check := func(errText string) string {
		return fmt.Sprintf("agg fan=%d mergeSum=%d err=%q slo{%s}", fan, mergeSum, errText, slo.Digest())
	}
	if o.ExpectFailure {
		if err == nil {
			return Result{}, errors.New("agg: crash scenario reported success")
		}
		var ferr *caf.ImageFailedError
		if !errors.As(err, &ferr) {
			return Result{}, fmt.Errorf("agg: expected an ImageFailedError, got %T: %w", err, err)
		}
		if !col.Settled() {
			return Result{}, fmt.Errorf("agg: %d requests never settled",
				slo.Requests-slo.Completed-slo.Failed)
		}
		return Result{Report: rep, Check: check(ferr.Error())}, nil
	}
	if err != nil {
		return Result{}, err
	}
	if !col.Settled() {
		return Result{}, fmt.Errorf("agg: %d requests never settled",
			slo.Requests-slo.Completed-slo.Failed)
	}
	return Result{Report: rep, Check: check("")}, nil
}
