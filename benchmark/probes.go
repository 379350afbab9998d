package main

import (
	"runtime"
	"time"

	caf "caf2go"
	"caf2go/internal/collect"
	"caf2go/internal/core"
	"caf2go/internal/fabric"
	"caf2go/internal/load"
	"caf2go/internal/rt"
	"caf2go/internal/sim"
	"caf2go/internal/team"
	"caf2go/internal/uts"
)

// A probe drives one layer's public API alone, so its cost is a floor
// line of the budget: no workload can spend less per call than this.
type probe struct {
	// Metric names; "" means the probe does not report that reading.
	ns, allocs, events string
	nsUnit             string // unit of ns, "ns/call" unless set
	// perSecond, when set, reports run's return value as a rate per host
	// second in place of per call (the sequential UTS baseline).
	perSecond, perSecondUnit string
	// per is how many calls one iteration of run makes (default 1).
	per int
	// gomaxprocs, when set, is in force while the probe runs.
	gomaxprocs int
	// run makes n iterations on a fresh engine or machine and returns the
	// simulator events they took. run(0) is the cost of construction
	// alone, which the harness subtracts.
	run func(n int) uint64
}

const (
	probeTag     uint16 = 100 // below every tag the runtime layers register
	probeReplyTo uint16 = 101
	probeImages         = 64
)

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func noop() {}

// drain runs the engine dry every 256 sends, the way the in-tree
// micro-benchmarks keep queues at a realistic depth.
func drain(eng *sim.Engine, i int) {
	if i%256 == 255 {
		must(eng.Run())
	}
}

func procSwitch(n int) uint64 {
	e := sim.NewEngine(1)
	e.Go("switcher", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	must(e.Run())
	return e.EventsRun()
}

func sendDeliver(cfg fabric.Config) func(n int) uint64 {
	return func(n int) uint64 {
		eng := sim.NewEngine(1)
		f := fabric.New(eng, 2, cfg)
		f.Endpoint(1).RegisterHandler(probeTag, func(*fabric.Endpoint, *fabric.Msg) {})
		src := f.Endpoint(0)
		for i := 0; i < n; i++ {
			src.Send(&fabric.Msg{Src: 0, Dst: 1, Tag: probeTag, Class: fabric.AMShort, Bytes: 8}, fabric.SendOpts{})
			drain(eng, i)
		}
		must(eng.Run())
		return eng.EventsRun()
	}
}

// spmd runs body on every image of a bare rt kernel with the collective
// and finish layers attached, as internal/collect's and internal/core's
// own tests do.
func spmd(images int, body func(p *sim.Proc, img *rt.ImageKernel, c *collect.Comm, pl *core.Plane, w *team.Team)) uint64 {
	eng := sim.NewEngine(1)
	k := rt.NewKernel(eng, images, fabric.DefaultConfig())
	c := collect.New(k)
	pl := core.NewPlane(k, c, core.Config{WaitQuiescent: true})
	w := team.World(images)
	for i := 0; i < images; i++ {
		img := k.Image(i)
		img.Go("main", func(p *sim.Proc) { body(p, img, c, pl, w) })
	}
	must(eng.Run())
	return eng.EventsRun()
}

// cafRun runs main on a small caf machine and returns its event count.
func cafRun(images int, main func(img *caf.Image)) uint64 {
	rep, err := caf.Run(caf.Config{Images: images, Seed: 1}, main)
	must(err)
	return rep.EventsRun
}

var probeList = []probe{
	{ns: "sim.schedule_run_ns", allocs: "sim.schedule_run_allocs", run: func(n int) uint64 {
		e := sim.NewEngine(1)
		for i := 0; i < n; i++ {
			e.After(sim.Time(i%64), noop)
			if i%1024 == 1023 {
				must(e.RunUntil(e.Now() + 32))
			}
		}
		must(e.Run())
		return e.EventsRun()
	}},
	{ns: "sim.proc_switch_ns", allocs: "sim.proc_switch_allocs", run: procSwitch},
	// The same at GOMAXPROCS=1: the difference is the cross-P penalty of
	// handing a goroutine to another OS thread.
	{ns: "sim.proc_switch_p1_ns", gomaxprocs: 1, run: procSwitch},
	{ns: "sim.proc_spawn_ns", allocs: "sim.proc_spawn_allocs", run: func(n int) uint64 {
		var events uint64
		// A fresh engine every 4096 procs: an engine keeps every proc it
		// ever started, and the probe is of spawning, not of that list.
		for done := 0; done < n || done == 0; done += 4096 {
			e := sim.NewEngine(1)
			for i := done; i < n && i < done+4096; i++ {
				e.Go("p", func(*sim.Proc) {})
				drain(e, i)
			}
			must(e.Run())
			events += e.EventsRun()
		}
		return events
	}},
	{ns: "sim.park_unpark_ns", run: func(n int) uint64 {
		e := sim.NewEngine(1)
		e.Go("parker", func(p *sim.Proc) {
			wake := p.Unpark
			for i := 0; i < n; i++ {
				e.After(1, wake)
				p.Park("probe")
			}
		})
		must(e.Run())
		return e.EventsRun()
	}},
	{ns: "sim.timer_reset_ns", run: func(n int) uint64 {
		e := sim.NewEngine(1)
		t := e.NewTimer(noop)
		for i := 0; i < n; i++ {
			t.Reset(64)
			if i%1024 == 1023 {
				must(e.RunUntil(e.Now() + 32))
			}
		}
		must(e.Run())
		return e.EventsRun()
	}},

	{ns: "fabric.send_deliver_ns", allocs: "fabric.send_deliver_allocs", events: "fabric.send_deliver_events",
		run: sendDeliver(fabric.DefaultConfig())},
	{ns: "fabric.send_coalesced_ns", allocs: "fabric.send_coalesced_allocs", run: func() func(int) uint64 {
		cfg := fabric.DefaultConfig()
		cfg.Coalescing = fabric.Coalescing{MaxMsgs: 8}
		return sendDeliver(cfg)
	}()},

	{ns: "rt.am_dispatch_ns", allocs: "rt.am_dispatch_allocs", events: "rt.am_dispatch_events", run: func(n int) uint64 {
		eng := sim.NewEngine(1)
		k := rt.NewKernel(eng, 2, fabric.DefaultConfig())
		k.RegisterHandler(probeTag, func(d *rt.Delivery) {
			d.Detach()
			d.Complete()
		})
		src := k.Image(0)
		for i := 0; i < n; i++ {
			src.Send(1, probeTag, nil, rt.SendOpts{Class: fabric.AMShort, Bytes: 8})
			drain(eng, i)
		}
		must(eng.Run())
		return eng.EventsRun()
	}},
	{ns: "rt.call_reply_ns", allocs: "rt.call_reply_allocs", run: func(n int) uint64 {
		eng := sim.NewEngine(1)
		k := rt.NewKernel(eng, 2, fabric.DefaultConfig())
		k.RegisterHandler(probeReplyTo, func(d *rt.Delivery) { d.Reply(nil, 8) })
		src := k.Image(0)
		src.Go("caller", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				src.Call(p, 1, probeReplyTo, nil, rt.SendOpts{Class: fabric.AMShort, Bytes: 8})
			}
		})
		must(eng.Run())
		return eng.EventsRun()
	}},

	{ns: "collect.allreduce64_ns", events: "collect.allreduce64_events", run: func(n int) uint64 {
		return spmd(probeImages, func(p *sim.Proc, img *rt.ImageKernel, c *collect.Comm, _ *core.Plane, w *team.Team) {
			vec := []int64{int64(img.Rank())}
			for i := 0; i < n; i++ {
				c.Allreduce(p, img, w, collect.Sum, vec)
			}
		})
	}},

	{ns: "core.finish_empty64_ns", events: "core.finish_empty64_events", run: func(n int) uint64 {
		return spmd(probeImages, func(p *sim.Proc, img *rt.ImageKernel, _ *collect.Comm, pl *core.Plane, w *team.Team) {
			for i := 0; i < n; i++ {
				pl.End(p, img, pl.Begin(img, w))
			}
		})
	}},
	{ns: "core.cofence_ns", run: func(n int) uint64 {
		eng := sim.NewEngine(1)
		ct := core.NewCofenceTracker(false, 0)
		eng.Go("main", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				op := ct.Register(core.OpWrites, noop)
				eng.After(1, op.CompleteLocalData)
				ct.Cofence(p, core.AllowNone, core.AllowNone)
			}
		})
		must(eng.Run())
		return eng.EventsRun()
	}},

	{ns: "caf.spawn_finish_ns", allocs: "caf.spawn_finish_allocs", events: "caf.spawn_finish_events", run: func(n int) uint64 {
		return cafRun(2, func(img *caf.Image) {
			img.Finish(nil, func() {
				if img.Rank() != 0 {
					return
				}
				for i := 0; i < n; i++ {
					img.Spawn(1, func(*caf.Image) {})
				}
			})
		})
	}},
	{ns: "caf.copy_async_ns", allocs: "caf.copy_async_allocs", events: "caf.copy_async_events", run: func(n int) uint64 {
		return cafRun(2, func(img *caf.Image) {
			ca := caf.NewCoarray[uint64](img, nil, 1)
			if img.Rank() != 0 {
				return
			}
			src := []uint64{1}
			for i := 0; i < n; i++ {
				caf.CopyAsync(img, ca.Sec(1, 0, 1), caf.Local(src))
				img.Cofence(caf.AllowNone, caf.AllowNone)
			}
		})
	}},
	// The inner loop of ra-gup: blocking Get, local xor, blocking Put.
	{ns: "caf.get_put_ns", allocs: "caf.get_put_allocs", run: func(n int) uint64 {
		return cafRun(2, func(img *caf.Image) {
			ca := caf.NewCoarray[uint64](img, nil, 512)
			if img.Rank() != 0 {
				return
			}
			for i := 0; i < n; i++ {
				idx := i % 512
				v := caf.Get(img, ca.Sec(1, idx, idx+1))
				img.Compute(50 * caf.Nanosecond)
				caf.Put(img, ca.Sec(1, idx, idx+1), []uint64{v[0] ^ uint64(i)})
			}
		})
	}},
	// Two images ping-pong: each iteration is two notify/wait pairs.
	{ns: "caf.event_notify_wait_ns", per: 2, run: func(n int) uint64 {
		return cafRun(2, func(img *caf.Image) {
			mine := img.NewEvent()
			evs := img.Gather(nil, 0, mine, 8)
			evs = img.Broadcast(nil, 0, evs, 16).([]any)
			peer := evs[1-img.Rank()].(*caf.Event)
			for i := 0; i < n; i++ {
				if img.Rank() == 0 {
					img.EventNotify(peer)
					img.EventWait(mine)
				} else {
					img.EventWait(mine)
					img.EventNotify(peer)
				}
			}
		})
	}},
	{ns: "caf.lock_unlock_ns", run: func(n int) uint64 {
		return cafRun(2, func(img *caf.Image) {
			if img.Rank() != 0 {
				return
			}
			for i := 0; i < n; i++ {
				img.Lock(1, 0)
				img.Unlock(1, 0)
			}
		})
	}},
	// A machine of ra-fs's size built, launched with an empty main and run
	// to completion: the part of every rep that is not the workload.
	{ns: "caf.machine_ns_per_image", nsUnit: "ns/image", per: raFSImages, run: func(n int) uint64 {
		var events uint64
		for i := 0; i < n; i++ {
			events += cafRun(raFSImages, func(*caf.Image) {})
		}
		return events
	}},

	{ns: "load.schedule_ns_per_req", nsUnit: "ns/req", run: func(n int) uint64 {
		if n == 0 {
			return 0
		}
		load.Schedule(load.ArrivalConfig{
			Seed: 1, Clients: kvImages - kvServers, Requests: n,
			Rate: kvRatePerServer * kvServers, Keys: 16 * kvServers, WriteFrac: kvWriteFrac,
		})
		return 0
	}},
	{ns: "load.hist_observe_ns", run: func(n int) uint64 {
		h := load.NewHistogram()
		for i := 0; i < n; i++ {
			h.Observe(int64(uint32(i) * 2654435761 >> 12))
		}
		return uint64(h.Count())
	}},

	// The plain single-threaded baseline of the uts workload's problem.
	{perSecond: "workload.uts_seq_nodes_per_s", perSecondUnit: "nodes/s", run: func(n int) uint64 {
		var nodes int64
		for i := 0; i < n; i++ {
			nodes += uts.CountSequential(uts.Scaled(7)).Nodes
		}
		return uint64(nodes)
	}},
}

// probeReading is what one run(n) cost.
type probeReading struct {
	ns     float64
	allocs float64
	events float64
}

func readProbe(p probe, n int) probeReading {
	a0, _ := allocCounters()
	t0 := time.Now()
	events := p.run(n)
	d := time.Since(t0)
	a1, _ := allocCounters()
	return probeReading{ns: float64(d.Nanoseconds()), allocs: float64(a1 - a0), events: float64(events)}
}

// medianReading takes three readings and returns, per field, the median.
func medianReading(p probe, n int) probeReading {
	var ns, allocs, events [3]float64
	for i := range ns {
		r := readProbe(p, n)
		ns[i], allocs[i], events[i] = r.ns, r.allocs, r.events
	}
	return probeReading{ns: median(ns[:]), allocs: median(allocs[:]), events: median(events[:])}
}

// runProbe sizes the probe's loop so one reading lasts at least budget,
// then reports the median of three readings per call, net of run(0).
func runProbe(p probe, budget time.Duration) map[string]float64 {
	if p.gomaxprocs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p.gomaxprocs))
	}
	base := medianReading(p, 0)
	n := 1
	for {
		r := readProbe(p, n)
		if r.ns-base.ns >= float64(budget.Nanoseconds()) || n >= 1<<30 {
			break
		}
		// Aim a fifth past the budget, growing at least 2× and at most 100×.
		grow := 1.2 * float64(budget.Nanoseconds()) / max(r.ns-base.ns, 1)
		n = int(float64(n) * min(max(grow, 2), 100))
	}
	got := medianReading(p, n)
	calls := float64(n) * float64(max(p.per, 1))
	perCall := func(got, base float64) float64 { return max(got-base, 0) / calls }
	out := map[string]float64{}
	if p.ns != "" {
		out[p.ns] = perCall(got.ns, base.ns)
	}
	if p.allocs != "" {
		out[p.allocs] = perCall(got.allocs, base.allocs)
	}
	if p.events != "" {
		out[p.events] = perCall(got.events, base.events)
	}
	if p.perSecond != "" {
		out[p.perSecond] = (got.events - base.events) / ((got.ns - base.ns) / 1e9)
	}
	return out
}

// name is the probe's span name: its first metric.
func (p probe) name() string {
	if p.ns != "" {
		return p.ns
	}
	return p.perSecond
}
