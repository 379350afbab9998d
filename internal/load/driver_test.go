package load

import (
	"fmt"
	"reflect"
	"testing"

	caf "caf2go"
)

// driveFunc is the signature Drive and its ticking oracle share.
type driveFunc func(img *caf.Image, client int, arr *Arrivals, col *Collector, o DriveOpts, issue Issuer)

// ticking is the ticking oracle as a driveFunc: each client reads the
// materialised schedule of arr's config.
func ticking(img *caf.Image, client int, arr *Arrivals, col *Collector, o DriveOpts, issue Issuer) {
	driveTicking(img, client, Schedule(arr.cfg), col, o, issue)
}

// protocol is how a test program's clients serve a request.
type protocol int

const (
	shipping     protocol = iota // handler and reply shipped inline; the reply settles
	workerProc                   // a local worker proc per request: lock, get, put, unlock
	continuation                 // fan-out spawns settled by PollSet continuations under finish
)

// serveRun is the outcome of one request/reply program: the machine's
// report, the SLO digest and a checksum of the values the clients read,
// and the run's arrival stream and collector.
type serveRun struct {
	rep    caf.Report
	digest string
	sum    int64
	arr    *Arrivals
	col    *Collector
}

// serve runs a request/reply program: the first `servers` images own a
// table slot per key, the rest drive the arrivals of acfg through drive.
func serve(t *testing.T, cfg caf.Config, servers int, proto protocol, acfg ArrivalConfig, o DriveOpts, drive driveFunc) serveRun {
	t.Helper()
	const svc = caf.Microsecond
	arr := NewArrivals(acfg)
	col := NewCollector("request", arr)
	var sum int64
	m := caf.NewMachine(cfg)
	m.Launch(func(img *caf.Image) {
		me := img.Rank()
		table := caf.NewCoarray[int64](img, nil, 64)
		img.Barrier(nil)
		if proto == continuation && me < servers {
			img.Finish(nil, func() {})
			return
		}
		if me < servers {
			return
		}
		var issue Issuer
		switch proto {
		case shipping:
			issue = func(d *Driver, r Request) {
				srv, slot, seq, key := int(r.Key%uint64(servers)), int(r.Key/uint64(servers)), r.Seq, int64(r.Key)
				col.Issued(m, r, me, srv)
				if m.ImageDead(srv) {
					col.FailDead(m, img.Now(), seq, srv)
					return
				}
				img.Spawn(srv, func(s *caf.Image) {
					tab := table.Local(s)
					tab[slot] += key
					v := tab[slot]
					s.Spawn(me, func(c *caf.Image) {
						sum += v
						col.Done(c.Machine(), c.Now(), seq)
					}, caf.WithBytes(16), caf.Inline(0))
				}, caf.WithBytes(24), caf.Inline(svc))
			}
		case workerProc:
			issue = func(d *Driver, r Request) {
				srv, slot, seq, key := int(r.Key%uint64(servers)), int(r.Key/uint64(servers)), r.Seq, int64(r.Key)
				col.Issued(m, r, me, srv)
				img.Spawn(me, func(w *caf.Image) {
					w.Lock(srv, 0)
					v := caf.Get(w, table.Sec(srv, slot, slot+1))[0] + key
					w.Compute(svc)
					caf.Put(w, table.Sec(srv, slot, slot+1), []int64{v})
					w.Unlock(srv, 0)
					sum += v
					col.Done(w.Machine(), w.Now(), seq)
				})
			}
		case continuation:
			issue = func(d *Driver, r Request) {
				seq, key := r.Seq, int64(r.Key)
				col.Issued(m, r, me, int(r.Key%uint64(servers)))
				const fan = 2
				remaining := fan
				for i := 0; i < fan; i++ {
					srv := (int(r.Key) + i) % servers
					sub := img.SpawnHandle(srv, func(s *caf.Image) { table.Local(s)[0] += key }, caf.WithBytes(48), caf.Inline(svc))
					d.PS.OnGlobalCompletion(sub, func() {
						if remaining--; remaining == 0 {
							sum += key
							col.Done(m, d.Img.Now(), seq)
						}
					})
				}
			}
		}
		body := func() { drive(img, me-servers, arr, col, o, issue) }
		if proto == continuation {
			img.Finish(nil, body)
		} else {
			body()
		}
	})
	rep, err := m.RunToCompletion()
	if err != nil {
		t.Fatal(err)
	}
	if !col.Settled() {
		t.Fatalf("%d of %d requests never settled", col.requests()-col.completed-col.failed, col.requests())
	}
	return serveRun{rep: rep, digest: col.SLO().Digest(), sum: sum, arr: arr, col: col}
}

// TestDriveMatchesTickingOracle runs one request/reply program through
// Drive and through the loop that wakes on every tick. Everything the
// run reports must be equal but the event count, which falls exactly
// where a tick can be slept through: settlements by reply or by worker
// proc with no detector. A continuation-driven client and a run with the
// failure detector on must tick exactly as before.
func TestDriveMatchesTickingOracle(t *testing.T) {
	arrivals := func(clients int, rate float64, seed int64) ArrivalConfig {
		return ArrivalConfig{Seed: seed, Clients: clients, Requests: 160, Rate: rate, Keys: 64, WriteFrac: 0.5}
	}
	cases := []struct {
		name    string
		cfg     caf.Config
		proto   protocol
		rate    float64
		opts    DriveOpts
		skipped bool
	}{
		{"shipping", caf.Config{Images: 8, Seed: 3}, shipping, 300_000, DriveOpts{OnDead: DeadFail}, true},
		{"shipping-saturated", caf.Config{Images: 8, Seed: 5}, shipping, 4_000_000, DriveOpts{OnDead: DeadFail}, true},
		{"worker-proc", caf.Config{Images: 6, Seed: 4}, workerProc, 200_000, DriveOpts{}, true},
		{"continuation", caf.Config{Images: 8, Seed: 6}, continuation, 300_000, DriveOpts{}, false},
		{"detector-on", caf.Config{Images: 8, Seed: 7,
			Fabric:          caf.FabricConfig{Faults: &caf.FaultPlan{Seed: 7, Crash: map[int]caf.Time{1: 80 * caf.Microsecond}}},
			FailureDetector: caf.FailureDetectorConfig{Enabled: true, Heartbeat: 2 * caf.Microsecond}},
			shipping, 300_000, DriveOpts{OnDead: DeadFail}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			servers := tc.cfg.Images / 2
			acfg := arrivals(tc.cfg.Images-servers, tc.rate, tc.cfg.Seed)
			got := serve(t, tc.cfg, servers, tc.proto, acfg, tc.opts, Drive)
			want := serve(t, tc.cfg, servers, tc.proto, acfg, tc.opts, ticking)
			if got.digest != want.digest || got.sum != want.sum {
				t.Fatalf("model moved:\n got  sum=%d %s\n want sum=%d %s", got.sum, got.digest, want.sum, want.digest)
			}
			gotEv, wantEv := got.rep.EventsRun, want.rep.EventsRun
			got.rep.EventsRun, want.rep.EventsRun = 0, 0
			if !reflect.DeepEqual(got.rep, want.rep) {
				t.Fatalf("report moved:\n got  %+v\n want %+v", got.rep, want.rep)
			}
			switch {
			case tc.skipped && gotEv >= wantEv:
				t.Errorf("%d events, want fewer than the ticking loop's %d", gotEv, wantEv)
			case !tc.skipped && gotEv != wantEv:
				t.Errorf("%d events, want the ticking loop's %d", gotEv, wantEv)
			}
			t.Logf("%d events (ticking: %d), %s", gotEv, wantEv, got.digest)
		})
	}
}

// TestDriveWatchdogCountsSettlements: one request arrives every 1µs and
// each settles 1.5µs after it is issued, so every wake of the loop finds
// two requests outstanding. Requests keep completing; the watchdog must
// not take the steady count for a stall.
func TestDriveWatchdogCountsSettlements(t *testing.T) {
	const n = 200
	sched := make([]Request, n)
	for k := range sched {
		sched[k] = Request{Seq: k, Key: uint64(k), At: caf.Time(k+1) * caf.Microsecond}
	}
	arr := merged(sched)
	col := NewCollector("request", arr)
	m := caf.NewMachine(caf.Config{Images: 1, Seed: 1})
	m.Launch(func(img *caf.Image) {
		eng := m.Engine()
		Drive(img, 0, arr, col, DriveOpts{GiveUpAfter: 20 * caf.Microsecond}, func(d *Driver, r Request) {
			col.Issued(m, r, img.Rank(), 0)
			seq := r.Seq
			eng.After(1500, func() { col.Done(m, eng.Now(), seq) })
		})
	})
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		_, err = m.RunToCompletion()
	}()
	if err != nil {
		t.Fatal(err)
	}
	if s := col.SLO(); s.Completed != n || s.P50 != 1500 || s.MaxLat != 1500 {
		t.Fatalf("completed %d of %d, p50 %v, max %v; want all at 1.5µs", s.Completed, n, s.P50, s.MaxLat)
	}
}

// merged returns a stream whose merge has already emitted sched, one
// client's requests in Seq order: every request waits in the ring for
// its client.
func merged(sched []Request) *Arrivals {
	a := &Arrivals{cfg: ArrivalConfig{Clients: 1, Requests: len(sched), Rate: 1, Keys: 1}.withDefaults()}
	a.streams = []clientStream{{qHead: -1, qTail: -1}}
	for _, r := range sched {
		a.merged++
		a.wait(r)
	}
	if len(sched) > 0 {
		a.first, a.last = Span(sched)
	}
	return a
}

// TestLoadStateIsBounded runs the kv-shipping pin shape, 16 clients
// shipping 20 000 requests to 16 servers at 100 k req/s each, and checks
// that the load state follows the clients and the requests in flight,
// not the schedule: the merged requests waiting for their clients and
// the collector's pending window each stay below four per client.
func TestLoadStateIsBounded(t *testing.T) {
	const servers, clients, requests = 16, 16, 20_000
	acfg := ArrivalConfig{Seed: 1, Clients: clients, Requests: requests,
		Rate: 100_000 * servers, Keys: 16 * servers, WriteFrac: 0.5}
	run := serve(t, caf.Config{Images: servers + clients, Seed: 1}, servers, shipping, acfg,
		DriveOpts{OnDead: DeadFail}, Drive)
	if s := run.col.SLO(); s.Completed != requests {
		t.Fatalf("%d of %d requests completed", s.Completed, requests)
	}
	if run.arr.hiRing >= 4*clients {
		t.Errorf("%d merged requests waited at once, want < %d", run.arr.hiRing, 4*clients)
	}
	if run.col.hiPend >= 4*clients {
		t.Errorf("pending window reached %d requests, want < %d", run.col.hiPend, 4*clients)
	}
	t.Logf("high water: %d waiting (ring of %d), pending window %d (ring of %d)",
		run.arr.hiRing, len(run.arr.ring), run.col.hiPend, len(run.col.pend))
}
