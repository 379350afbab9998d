package load

import (
	"fmt"
	"math/rand"
	"sort"

	caf "caf2go"
	"caf2go/internal/path"
)

// The reference implementations the package's loops are checked
// against, kept as they were before Schedule merged and Drive stopped
// ticking through idle boundaries.

// scheduleSorted is Schedule as a stable sort of the client streams,
// appended in client order.
func scheduleSorted(cfg ArrivalConfig) []Request {
	cfg = cfg.withDefaults()
	perClient := cfg.Rate / float64(cfg.Clients)
	all := make([]Request, 0, cfg.Requests)
	base, rem := cfg.Requests/cfg.Clients, cfg.Requests%cfg.Clients
	for c := 0; c < cfg.Clients; c++ {
		n := base
		if c < rem {
			n++
		}
		rng := rand.New(rand.NewSource(cfg.Seed*0xBF58476D ^ int64(c+1)*0x94D049BB ^ 0x6A09E667))
		gen := newArrivalGen(cfg, perClient, rng)
		t := cfg.Start
		for k := 0; k < n; k++ {
			t = gen.next(t)
			all = append(all, Request{
				Client: c,
				Key:    uint64(rng.Int63n(int64(cfg.Keys))),
				Write:  rng.Float64() < cfg.WriteFrac,
				At:     t,
			})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].At != all[j].At {
			return all[i].At < all[j].At
		}
		return all[i].Client < all[j].Client
	})
	for i := range all {
		all[i].Seq = i
	}
	return all
}

// driveTicking is Drive waking at every tick boundary while requests
// are outstanding, over a private copy of the client's requests.
func driveTicking(img *caf.Image, client int, sched []Request, col *Collector, o DriveOpts, issue Issuer) {
	if o.Tick <= 0 {
		o.Tick = 2 * caf.Microsecond
	}
	if o.GiveUpAfter <= 0 {
		o.GiveUpAfter = caf.Second
	}
	d := &Driver{Img: img, PS: img.NewPollSet(), Col: col}
	me := img.Rank()
	m := img.Machine()
	traced := func(r Request) {
		prev := img.PathScope(path.ReqCtx(r.Seq))
		issue(d, r)
		img.PathScope(prev)
	}

	var mine []Request
	for _, r := range sched {
		if r.Client == client {
			mine = append(mine, r)
		}
	}

	i := 0
	lastProgress := img.Now()
	prevOut := -1
	for {
		now := img.Now()
		for i < len(mine) && mine[i].At <= now {
			r := mine[i]
			i++
			traced(r)
		}
		d.PS.Poll()
		for _, r := range col.SettleDead(m, me, o.OnDead) {
			traced(r)
		}
		out := col.Outstanding(me)
		if i >= len(mine) && out == 0 {
			break
		}
		if out != prevOut {
			prevOut = out
			lastProgress = now
		}
		if out > 0 && now-lastProgress > o.GiveUpAfter {
			panic(fmt.Sprintf("load: client image %d stalled at t=%v with %d requests outstanding (issued %d/%d)",
				me, now, out, i, len(mine)))
		}
		next := now + o.Tick
		if out == 0 {
			next = mine[i].At
		} else if i < len(mine) && mine[i].At < next {
			next = mine[i].At
		}
		if next <= now {
			next = now + 1
		}
		img.Compute(next - now)
	}
	d.PS.Poll()
}
