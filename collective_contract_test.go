package caf_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	caf "caf2go"
)

// collectiveContract runs the nine asynchronous collectives on the world
// team, each behind a one-element copy to the right-hand image (which the
// relaxed runtime buffers, so a collective's cofence registration flushes
// it), completed implicitly or through one of the two events. Every
// collective's Op carries a continuation; the allreduce's is chained by
// Then. An explicit collective's event is waited for once per collective;
// a Cofence and a CofenceOp follow. log collects, per image, when each
// continuation, event wait and fence returned, and each collective's
// result.
func collectiveContract(style string, log [][]string) func(img *caf.Image) {
	return func(img *caf.Image) {
		n, me := img.NumImages(), img.Rank()
		right := (me + 1) % n
		ca := caf.NewCoarray[int64](img, nil, 16)
		src := make([]int64, 16)
		for i := range src {
			src[i] = int64(100*me + i)
		}
		note := func(format string, args ...any) {
			log[me] = append(log[me], fmt.Sprintf(format, args...))
		}
		var opts []caf.CollOpt
		var ev *caf.Event
		switch style {
		case "data":
			ev = img.NewEvent()
			opts = []caf.CollOpt{caf.DataEvent(ev)}
		case "op":
			ev = img.NewEvent()
			opts = []caf.CollOpt{caf.OpEvent(ev)}
		}
		vals := make([]any, n)
		for i := range vals {
			vals[i] = 10*me + i
		}
		starts := []func() *caf.Collective{
			func() *caf.Collective { return img.BarrierAsync(nil, opts...) },
			func() *caf.Collective { return img.BroadcastAsync(nil, n-1, 7*me, 8, opts...) },
			func() *caf.Collective {
				return img.ReduceAsync(nil, n/2, caf.Sum, []int64{int64(me + 1), 2}, opts...)
			},
			func() *caf.Collective { return img.AllreduceAsync(nil, caf.Max, []int64{int64(me * me), 3}, opts...) },
			func() *caf.Collective { return img.GatherAsync(nil, 0, 3*me, 8, opts...) },
			func() *caf.Collective { return img.ScatterAsync(nil, n-1, vals, 8, opts...) },
			func() *caf.Collective { return img.AlltoallAsync(nil, vals, 8, opts...) },
			func() *caf.Collective { return img.ScanAsync(nil, caf.Sum, []int64{int64(me), 1}, opts...) },
			func() *caf.Collective { return img.SortAsync(nil, []int64{int64((me * 5) % 7), int64(me)}, opts...) },
		}
		var cs []*caf.Collective
		img.Finish(nil, func() {
			for i, start := range starts {
				caf.CopyAsync(img, ca.Sec(right, i, i+1), caf.Local(src[i:i+1]))
				c := start()
				k := c.Op().Kind()
				c.Op().OnLocalData(func() { note("%s data %v", k, img.Now()) })
				c.Op().OnGlobalCompletion(func() { note("%s global %v", k, img.Now()) })
				if i == 3 {
					c.Op().Then(func() { note("then %v", img.Now()) })
				}
				cs = append(cs, c)
				img.Compute(100 * caf.Nanosecond)
			}
			if ev != nil {
				for range cs {
					img.EventWait(ev)
					note("event %v", img.Now())
				}
			}
			img.Cofence(caf.AllowNone, caf.AllowNone)
			note("cofence %v pending %d", img.Now(), img.PendingImplicitOps())
			img.CofenceOp(caf.AllowRead).OnGlobalCompletion(func() { note("cofence-op %v", img.Now()) })
		})
		for _, c := range cs {
			c.WaitLocalOp()
			note("%s %v", c.Op().Kind(), c.Result())
		}
	}
}

// collectiveRecord is the comparable part of one run of the collective
// contract: its report, and FNV-64a digests of the Chrome trace bytes,
// of the lifecycle's op records, of the profile JSON and of the per-image
// log.
type collectiveRecord struct {
	VirtualTime  caf.Time
	Msgs, Bytes  uint64
	Copies       int64
	ReduceRounds int64
	EventsRun    uint64
	Chrome       uint64
	Ops          uint64
	Profile      uint64
	Log          uint64
}

func digest(s []byte) uint64 {
	h := fnv.New64a()
	h.Write(s)
	return h.Sum64()
}

// The collective contract: each asynchronous collective, completed
// implicitly or by either event, eager and relaxed, on a one-image and
// an eight-image team, with tracing on, runs the events, writes the
// traces and the op records and returns the results recorded on the code
// that fed a collective's Op from callback lists on its collect.Handle.
func TestCollectiveContractReports(t *testing.T) {
	want := map[string]collectiveRecord{
		"images=1/eager/implicit":     {2924, 0x9, 0xd8, 9, 1, 0x30, 0x33e637c4f795b80c, 0xba7d2082b12c1c8, 0x5d8adf64b5bbb883, 0x2b8e203a3864e404},
		"images=1/eager/data":         {2924, 0x9, 0xd8, 9, 1, 0x30, 0x9e8bda23e1886396, 0xba7d2082b12c1c8, 0x5d8adf64b5bbb883, 0x968594a2a50f089c},
		"images=1/eager/op":           {2924, 0x9, 0xd8, 9, 1, 0x30, 0x9e8bda23e1886396, 0xba7d2082b12c1c8, 0x5d8adf64b5bbb883, 0x968594a2a50f089c},
		"images=1/relaxed-1/implicit": {3024, 0x9, 0xd8, 9, 1, 0x30, 0x64b66df47c61b5d, 0x449f2171e5da0378, 0x6979a87fac4bc6ae, 0xbba29bab06d0a026},
		"images=1/relaxed-1/data":     {3024, 0x9, 0xd8, 9, 1, 0x30, 0x3eb256574825f703, 0xc7372ae96f6f6976, 0xa8df1cfa06988980, 0x79d0cd970ad9e55e},
		"images=1/relaxed-1/op":       {3024, 0x9, 0xd8, 9, 1, 0x30, 0x3eb256574825f703, 0xc7372ae96f6f6976, 0xa8df1cfa06988980, 0x79d0cd970ad9e55e},
		"images=8/eager/implicit":     {38788, 0xf0, 0x18b8, 72, 8, 0x3d4, 0x8889e6f9a2ba8c35, 0x2acb9f6eaa0614ee, 0xdea6bc30fbedb2cf, 0x8d12f5120241af6a},
		"images=8/eager/data":         {38788, 0xf0, 0x18b8, 72, 8, 0x406, 0xcc9eb444477ad392, 0x2acb9f6eaa0614ee, 0xc4732a48a18ddc45, 0x81d54d93b9be3598},
		"images=8/eager/op":           {38788, 0xf0, 0x18b8, 72, 8, 0x410, 0x7dbb34229faea575, 0xaca0c0bd65b0fe76, 0xc61f6d5860a667d7, 0x3e6b8b3baa76e238},
		"images=8/relaxed-1/implicit": {38796, 0xf0, 0x18b8, 72, 8, 0x3d4, 0xdc0dd7ea4c90a138, 0x17bd219e0c18881b, 0xf8da860441bccb68, 0xfc2e1403ea149ff},
		"images=8/relaxed-1/data":     {38796, 0xf0, 0x18b8, 72, 8, 0x406, 0xf047afbf79007d20, 0xc9273aaa1006cc0e, 0x17ac698a1ab891b6, 0x5d7c5c14842d386},
		"images=8/relaxed-1/op":       {38796, 0xf0, 0x18b8, 72, 8, 0x410, 0x77e97c0a1496323c, 0xee66890e89df6662, 0xf26ba25c93c959eb, 0xdfe9aa6f80c4dc1d},
	}
	for _, images := range []int{1, 8} {
		for _, mode := range []string{"eager", "relaxed-1"} {
			for _, style := range []string{"implicit", "data", "op"} {
				name := fmt.Sprintf("images=%d/%s/%s", images, mode, style)
				t.Run(name, func(t *testing.T) {
					cfg := caf.Config{Images: images, Seed: 1, TraceCapacity: 1 << 16}
					if mode == "relaxed-1" {
						cfg.Relaxed, cfg.MaxDelayed = true, 1
					}
					log := make([][]string, images)
					m := caf.NewMachine(cfg)
					m.Launch(collectiveContract(style, log))
					rep, err := m.RunToCompletion()
					if err != nil {
						t.Fatal(err)
					}
					var chrome bytes.Buffer
					if err := m.Trace().WriteChromeTrace(&chrome); err != nil {
						t.Fatal(err)
					}
					var profile bytes.Buffer
					if err := m.WriteProfile(&profile); err != nil {
						t.Fatal(err)
					}
					got := collectiveRecord{rep.VirtualTime, rep.Msgs, rep.Bytes, rep.Copies, rep.ReduceRounds, rep.EventsRun,
						digest(chrome.Bytes()), digest(fmt.Append(nil, m.Lifecycle().Ops())),
						digest(profile.Bytes()), digest(fmt.Append(nil, log))}
					if w := want[name]; got != w {
						t.Errorf("got  %#v\nwant %#v", got, w)
					}
				})
			}
		}
	}
}
