// Benchmarks regenerating the paper's figures at test scale. Each bench
// runs the corresponding workload once per iteration and reports the
// simulated makespan as "vsec/op" next to the usual wall-clock ns/op:
// the virtual metric is the one that mirrors the paper's y-axes.
//
// Full-scale sweeps (up to the paper's 32K images) live in the cmd/
// drivers; these benches keep the whole suite minutes-fast.
package caf_test

import (
	"fmt"
	"runtime"
	"testing"

	caf "caf2go"
	"caf2go/internal/bench"
	"caf2go/internal/ra"
	"caf2go/internal/sim"
	"caf2go/internal/uts"
)

func reportVirtual(b *testing.B, total caf.Time) {
	b.Helper()
	b.ReportMetric(total.Seconds()/float64(b.N), "vsec/op")
}

// ---------------------------------------------------------------------
// Fig. 12 — cofence micro-benchmark (producer/consumer).
// ---------------------------------------------------------------------

func benchFig12(b *testing.B, variant string) {
	o := bench.Fig12Opts{Cores: []int{64}, Iters: 100, Fan: 5, Bytes: 80, Seed: 1}
	var total caf.Time
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig12(o)
		if err != nil {
			b.Fatal(err)
		}
		s, ok := fig.Lookup(variant)
		if !ok {
			b.Fatalf("series %q missing", variant)
		}
		total += caf.Time(s.Y[0] * float64(caf.Second))
	}
	reportVirtual(b, total)
}

func BenchmarkFig12Cofence(b *testing.B) { benchFig12(b, "copy_async w/ cofence") }
func BenchmarkFig12Events(b *testing.B)  { benchFig12(b, "copy_async w/ events") }
func BenchmarkFig12Finish(b *testing.B)  { benchFig12(b, "copy_async w/ finish") }

// ---------------------------------------------------------------------
// Figs. 13/14 — RandomAccess.
// ---------------------------------------------------------------------

func benchRA(b *testing.B, cfg ra.Config, images int) {
	var total caf.Time
	for i := 0; i < b.N; i++ {
		res, err := ra.Run(caf.Config{Images: images, Seed: 1}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Time
	}
	reportVirtual(b, total)
}

func BenchmarkFig13GetUpdatePut(b *testing.B) {
	cfg := ra.DefaultConfig(ra.GetUpdatePut)
	cfg.LocalTableBits = 7
	benchRA(b, cfg, 16)
}

func BenchmarkFig13FunctionShipping(b *testing.B) {
	cfg := ra.DefaultConfig(ra.FunctionShipping)
	cfg.LocalTableBits = 7
	cfg.BunchSize = 128
	benchRA(b, cfg, 16)
}

// BenchmarkRacesGUP prices the race detector on GUP RandomAccess at 8
// images and a 2^8-word table per image, with Config.Races off and on;
// races/op is what the detector reports per run.
func BenchmarkRacesGUP(b *testing.B) {
	cfg := ra.DefaultConfig(ra.GetUpdatePut)
	cfg.LocalTableBits = 8
	for _, races := range []bool{false, true} {
		b.Run(fmt.Sprintf("races=%t", races), func(b *testing.B) {
			b.ReportAllocs()
			var found int64
			for i := 0; i < b.N; i++ {
				res, err := ra.Run(caf.Config{Images: 8, Seed: 1, Races: races}, cfg)
				if err != nil {
					b.Fatal(err)
				}
				found += res.Conflicts
			}
			b.ReportMetric(float64(found)/float64(b.N), "races/op")
		})
	}
}

func BenchmarkFig14Bunch16(b *testing.B) {
	cfg := ra.DefaultConfig(ra.FunctionShipping)
	cfg.LocalTableBits = 7
	cfg.BunchSize = 16
	benchRA(b, cfg, 16)
}

func BenchmarkFig14Bunch256(b *testing.B) {
	cfg := ra.DefaultConfig(ra.FunctionShipping)
	cfg.LocalTableBits = 7
	cfg.BunchSize = 256
	benchRA(b, cfg, 16)
}

// ---------------------------------------------------------------------
// Figs. 16/17/18 — UTS.
// ---------------------------------------------------------------------

// benchUTS runs the search b.N times and reports its virtual time and,
// from the runtime's counters around the last run, what a run allocates
// per tree node, the machine included.
func benchUTS(b *testing.B, mcfg caf.Config, cfg uts.Config) uts.Result {
	var total caf.Time
	var last uts.Result
	var before, after runtime.MemStats
	for i := 0; i < b.N; i++ {
		if i == b.N-1 {
			runtime.ReadMemStats(&before)
		}
		res, err := uts.Run(mcfg, cfg)
		if i == b.N-1 {
			runtime.ReadMemStats(&after)
		}
		if err != nil {
			b.Fatal(err)
		}
		total += res.Time
		last = res
	}
	reportVirtual(b, total)
	nodes := float64(last.TotalNodes)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/nodes, "objects/node")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/nodes, "B/node")
	return last
}

func BenchmarkFig16LoadBalance(b *testing.B) {
	benchUTS(b, caf.Config{Images: 32, Seed: 1}, uts.DefaultConfig(uts.Scaled(8)))
}

func BenchmarkFig17Efficiency(b *testing.B) {
	spec := uts.Scaled(8)
	cfg := uts.DefaultConfig(spec)
	seq := uts.CountSequential(spec)
	res := benchUTS(b, caf.Config{Images: 16, Seed: 1}, cfg)
	t1 := caf.Time(seq.Nodes) * cfg.WorkPerNode
	b.ReportMetric(float64(t1)/(16*float64(res.Time)), "efficiency")
}

func BenchmarkFig18OurAlgorithm(b *testing.B) {
	res := benchUTS(b, caf.Config{Images: 32, Seed: 1}, uts.DefaultConfig(uts.Scaled(7)))
	b.ReportMetric(float64(res.Rounds), "rounds")
}

func BenchmarkFig18NoUpperBound(b *testing.B) {
	res := benchUTS(b, caf.Config{Images: 32, Seed: 1, FinishNoWait: true}, uts.DefaultConfig(uts.Scaled(7)))
	b.ReportMetric(float64(res.Rounds), "rounds")
}

// ---------------------------------------------------------------------
// Figs. 2/3 — steal protocols.
// ---------------------------------------------------------------------

func benchSteal(b *testing.B, series string) {
	o := bench.StealOpts{Steals: 30, ItemsSwept: []int{4}, Seed: 1}
	var total caf.Time
	for i := 0; i < b.N; i++ {
		fig, err := bench.StealRoundTrips(o)
		if err != nil {
			b.Fatal(err)
		}
		s, ok := fig.Lookup(series)
		if !ok {
			b.Fatalf("series %q missing", series)
		}
		total += caf.Time(s.Y[0] * float64(caf.Second))
	}
	reportVirtual(b, total)
}

func BenchmarkStealGetPutLock(b *testing.B) {
	benchSteal(b, "get/put/lock (Fig. 2, 5 round trips)")
}

func BenchmarkStealFunctionShipping(b *testing.B) {
	benchSteal(b, "function shipping (Fig. 3, 2 spawns)")
}

// ---------------------------------------------------------------------
// Runtime micro-benchmarks (ablation targets from DESIGN.md §6).
// ---------------------------------------------------------------------

func BenchmarkFinishEmpty(b *testing.B) {
	// Cost of one empty finish (pure termination-detection overhead).
	iters := b.N
	rep, err := caf.Run(caf.Config{Images: 32, Seed: 1}, func(img *caf.Image) {
		for i := 0; i < iters; i++ {
			img.Finish(nil, func() {})
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	reportVirtual(b, rep.VirtualTime)
}

func BenchmarkSpawnThroughput(b *testing.B) {
	iters := b.N
	rep, err := caf.Run(caf.Config{Images: 8, Seed: 1}, func(img *caf.Image) {
		img.Finish(nil, func() {
			if img.Rank() != 0 {
				return
			}
			for i := 0; i < iters; i++ {
				img.Spawn(1+i%7, func(r *caf.Image) {})
			}
		})
	})
	if err != nil {
		b.Fatal(err)
	}
	reportVirtual(b, rep.VirtualTime)
}

// BenchmarkSpawnProcUnderFinish ships a no-op function that runs as a
// proc, one at a time under finish, past its acknowledgement before the
// next: the steady state of a proc spawn, timed from a warm one. With
// -benchmem it reads the one object a proc spawn allocates, the target's
// shipped record with the function's proc in it.
func BenchmarkSpawnProcUnderFinish(b *testing.B) {
	iters := b.N
	b.ReportAllocs()
	_, err := caf.Run(caf.Config{Images: 2, Seed: 1}, func(img *caf.Image) {
		img.Finish(nil, func() {
			if img.Rank() != 0 {
				return
			}
			spawn := func() {
				img.Spawn(1, func(*caf.Image) {})
				img.Compute(10 * caf.Microsecond) // past the ack
			}
			spawn()
			b.ResetTimer()
			for i := 0; i < iters; i++ {
				spawn()
			}
			b.StopTimer()
		})
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawnInlineRequestReply is the KV service's request and reply
// (examples/workloads KVService): a client ships an inline request to a
// server, which ships an inline reply back, one request a microsecond.
// Neither spawn returns a handle, so with -benchmem the allocations per op
// are the two closures that capture the request's state.
func BenchmarkSpawnInlineRequestReply(b *testing.B) {
	iters := b.N
	replies := 0
	b.ReportAllocs()
	rep, err := caf.Run(caf.Config{Images: 2, Seed: 1}, func(img *caf.Image) {
		img.Finish(nil, func() {
			if img.Rank() != 0 {
				return
			}
			b.ResetTimer()
			for i := 0; i < iters; i++ {
				key := i
				img.Spawn(1, func(srv *caf.Image) {
					v := key * 2
					srv.Spawn(0, func(*caf.Image) { replies += v - 2*key + 1 }, caf.WithBytes(24), caf.Inline(0))
				}, caf.WithBytes(48), caf.Inline(caf.Microsecond))
				img.Compute(caf.Microsecond)
			}
		})
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
	if replies != iters {
		b.Fatalf("%d replies ran, want %d", replies, iters)
	}
	reportVirtual(b, rep.VirtualTime)
}

// benchReq is BenchmarkSpawnRecordInlineRequestReply's request: it
// computes its value on the server and ships itself back as its reply,
// which goes back on the client's free list.
type benchReq struct {
	key, v  int
	replies *int
	free    *sim.FreeList[benchReq]
}

type benchReply benchReq

func (q *benchReq) Ship(srv *caf.Image) {
	q.v = q.key * 2
	srv.SpawnRecord(0, (*benchReply)(q), caf.WithBytes(24), caf.Inline(0))
}

func (p *benchReply) Ship(*caf.Image) {
	q := (*benchReq)(p)
	*q.replies += q.v - 2*q.key + 1
	q.free.Put(q)
}

// BenchmarkSpawnRecordInlineRequestReply is BenchmarkSpawnInlineRequestReply
// with the request and its reply one record from a free list, as
// KVService ships them: a request allocates nothing, so -benchmem reads
// the machine's set-up spread over b.N (0 allocs/op at a million).
func BenchmarkSpawnRecordInlineRequestReply(b *testing.B) {
	iters := b.N
	replies := 0
	var free sim.FreeList[benchReq]
	b.ReportAllocs()
	rep, err := caf.Run(caf.Config{Images: 2, Seed: 1}, func(img *caf.Image) {
		img.Finish(nil, func() {
			if img.Rank() != 0 {
				return
			}
			b.ResetTimer()
			for i := 0; i < iters; i++ {
				q := free.New()
				*q = benchReq{key: i, replies: &replies, free: &free}
				img.SpawnRecord(1, q, caf.WithBytes(48), caf.Inline(caf.Microsecond))
				img.Compute(caf.Microsecond)
			}
		})
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
	if replies != iters {
		b.Fatalf("%d replies ran, want %d", replies, iters)
	}
	reportVirtual(b, rep.VirtualTime)
}

func BenchmarkCopyAsyncThroughput(b *testing.B) {
	iters := b.N
	rep, err := caf.Run(caf.Config{Images: 2, Seed: 1}, func(img *caf.Image) {
		ca := caf.NewCoarray[byte](img, nil, 256)
		if img.Rank() != 0 {
			return
		}
		src := make([]byte, 80)
		for i := 0; i < iters; i++ {
			caf.CopyAsync(img, ca.Sec(1, 0, 80), caf.Local(src))
			if i%64 == 63 {
				img.Cofence(caf.AllowNone, caf.AllowNone)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	reportVirtual(b, rep.VirtualTime)
}

// BenchmarkGetInto is the read of the reference RandomAccess update
// (TestPoolGetPutAllocs' GetInto row): a one-element remote GetInto into
// the caller's own storage, served into its recycled request record, so
// -benchmem reads the machine's set-up spread over b.N.
func BenchmarkGetInto(b *testing.B) {
	iters := b.N
	b.ReportAllocs()
	rep, err := caf.Run(caf.Config{Images: 2, Seed: 1}, func(img *caf.Image) {
		ca := caf.NewCoarray[uint64](img, nil, 512)
		if img.Rank() != 0 {
			return
		}
		var x [1]uint64
		b.ResetTimer()
		for i := 0; i < iters; i++ {
			idx := i % 512
			caf.GetInto(img, x[:], ca.Sec(1, idx, idx+1))
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
	reportVirtual(b, rep.VirtualTime)
}

// BenchmarkGetIntoPutFaultPlan is a one-element remote GetInto and Put on
// a 4-image machine whose fault plan injects nothing but runs the
// fabric's reliability protocol (TestPoolGetIntoPutSpawnFaultPlanAllocs'
// loop without its spawn): -benchmem reads what a request costs there,
// where the protocol's per-message state is what is left to allocate.
func BenchmarkGetIntoPutFaultPlan(b *testing.B) {
	iters := b.N
	b.ReportAllocs()
	cfg := caf.Config{Images: 4, Seed: 1, Fabric: caf.FabricConfig{Faults: &caf.FaultPlan{Seed: 1}}}
	rep, err := caf.Run(cfg, func(img *caf.Image) {
		ca := caf.NewCoarray[uint64](img, nil, 512)
		if img.Rank() != 0 {
			return
		}
		var x [1]uint64
		b.ResetTimer()
		for i := 0; i < iters; i++ {
			sec := ca.Sec(1, i%512, i%512+1)
			caf.GetInto(img, x[:], sec)
			caf.Put(img, sec, []uint64{x[0] + 1})
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
	reportVirtual(b, rep.VirtualTime)
}

// BenchmarkCollective is TestPoolCollectiveAllocs' -benchmem twin: a
// blocking Barrier and an AllreduceAsync waited to local completion, on a
// one-image machine, timed and counted after one warm-up call (which
// fills the record pools), so that even a -benchtime 1x run reads the
// steady state.
func BenchmarkCollective(b *testing.B) {
	vec := []int64{1, 2}
	for _, bc := range []struct {
		name string
		call func(img *caf.Image)
	}{
		{"Barrier", func(img *caf.Image) { img.Barrier(nil) }},
		{"AllreduceAsync", func(img *caf.Image) { img.AllreduceAsync(nil, caf.Sum, vec).WaitLocalOp() }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			_, err := caf.Run(caf.Config{Images: 1, Seed: 1}, func(img *caf.Image) {
				bc.call(img)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bc.call(img)
				}
				b.StopTimer()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkBarrier64(b *testing.B) {
	iters := b.N
	rep, err := caf.Run(caf.Config{Images: 64, Seed: 1}, func(img *caf.Image) {
		for i := 0; i < iters; i++ {
			img.Barrier(nil)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	reportVirtual(b, rep.VirtualTime)
}

func BenchmarkAllreduce64(b *testing.B) {
	iters := b.N
	rep, err := caf.Run(caf.Config{Images: 64, Seed: 1}, func(img *caf.Image) {
		vec := []int64{int64(img.Rank())}
		for i := 0; i < iters; i++ {
			img.Allreduce(nil, caf.Sum, vec)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	reportVirtual(b, rep.VirtualTime)
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §6).
// ---------------------------------------------------------------------

// Eager vs relaxed (deferred) initiation of implicit operations.
func benchInitiation(b *testing.B, relaxed bool) {
	iters := b.N
	rep, err := caf.Run(caf.Config{Images: 4, Seed: 1, Relaxed: relaxed}, func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 64)
		if img.Rank() != 0 {
			return
		}
		src := make([]int64, 16)
		for i := 0; i < iters; i++ {
			for d := 1; d < 4; d++ {
				caf.CopyAsync(img, ca.Sec(d, 0, 16), caf.Local(src))
			}
			img.Cofence(caf.AllowNone, caf.AllowNone)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	reportVirtual(b, rep.VirtualTime)
}

func BenchmarkAblationEagerInitiation(b *testing.B)   { benchInitiation(b, false) }
func BenchmarkAblationRelaxedInitiation(b *testing.B) { benchInitiation(b, true) }

// UTS lifelines on vs off (paper §IV-C2: the hybrid scheme's value).
func benchLifelines(b *testing.B, lifelines bool) {
	cfg := uts.DefaultConfig(uts.Scaled(8))
	cfg.Lifelines = lifelines
	res := benchUTS(b, caf.Config{Images: 32, Seed: 1}, cfg)
	mean := float64(res.TotalNodes) / 32
	worst := 0.0
	for _, c := range res.PerImage {
		dev := float64(c)/mean - 1
		if dev < 0 {
			dev = -dev
		}
		if dev > worst {
			worst = dev
		}
	}
	b.ReportMetric(worst, "max-imbalance")
}

func BenchmarkAblationLifelinesOn(b *testing.B)  { benchLifelines(b, true) }
func BenchmarkAblationLifelinesOff(b *testing.B) { benchLifelines(b, false) }

// ---------------------------------------------------------------------
// Machine cost at scale (ROADMAP item 13): TestPoolMachineObjectsPerImage's
// shape, built and run at up to the paper's 32 768 images. Run with
// go test -run '^$' -bench MachineScale -benchtime 1x .
// ---------------------------------------------------------------------

func BenchmarkMachineScale(b *testing.B) {
	for _, images := range []int{1024, 4096, 8192, 32768} {
		b.Run(fmt.Sprintf("images=%d", images), func(b *testing.B) {
			var objects, bytes, stack float64
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, by, st, ev := machineCost(b, images)
				objects, bytes, stack, events = objects+o, bytes+by, stack+st, events+ev
			}
			b.StopTimer()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			n := float64(b.N)
			b.ReportMetric(objects/n, "objects/image")
			b.ReportMetric(bytes/n, "B/image")
			b.ReportMetric(stack/n, "stack-B/image")
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(events), "µs/event")
			b.ReportMetric(float64(ms.HeapSys)/(1<<20), "HeapSys-MB")
		})
	}
}
