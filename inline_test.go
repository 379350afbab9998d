package caf

// Tests of shipped functions declared Inline (DESIGN §4.15): that one runs
// to the same observable result as the Compute-first proc it replaces,
// under every feature that touches the spawn path; that every operation
// which could park refuses, by name; that a record ships inline too;
// that both vehicles hand out strand ids in delivery order; what the
// path still allocates; and that its recycled record is not readable
// after the function returned.

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"caf2go/internal/path"
	"caf2go/internal/prof"
	"caf2go/internal/sim"
)

// shipMode selects how a test program ships a function that costs its
// target `cost` and then never parks: as the proc that opens with Compute,
// or as the inline event.
type shipMode bool

const (
	asProc   shipMode = false
	asInline shipMode = true
)

func (m shipMode) ship(img *Image, target int, cost Time, body SpawnFn, opts ...SpawnOpt) *Op {
	if m == asInline {
		return img.SpawnHandle(target, body, append(opts, Inline(cost))...)
	}
	return img.SpawnHandle(target, func(r *Image) {
		if cost > 0 {
			r.Compute(cost)
		}
		body(r)
	}, opts...)
}

// outcome is everything a run may be compared on.
type outcome struct {
	Tables  [][]uint64
	Done    []Time // per-request completion times (kv)
	Report  Report
	Fabric  FabricStats
	Err     string
	Buckets []prof.PathBucketRow
}

func finishRun(t *testing.T, m *Machine, o *outcome) {
	t.Helper()
	rep, err := m.RunToCompletion()
	if err != nil {
		var ferr *ImageFailedError
		if !errors.As(err, &ferr) {
			t.Fatalf("run failed with %T: %v", err, err)
		}
		o.Err = err.Error()
		m.Shutdown()
	}
	rep.EventsRun = 0 // the one field the two modes may differ in
	o.Report, o.Fabric = rep, m.FabricStats()
	if m.PathTracker() != nil {
		p := m.Profile()
		if mm := prof.PathMismatches(p); len(mm) != 0 {
			t.Errorf("%d requests whose buckets do not sum to their latency, first %+v", len(mm), mm[0])
		}
		o.Buckets = prof.PathBuckets(p)
	}
}

// raShaped is RandomAccess-FS in miniature: bunches of shipped
// read-modify-writes under finish, with a nested finish of depth-2 chains
// inside each. The two update operators do not commute, so the tables
// also record the order the functions ran in.
func raShaped(t *testing.T, cfg Config, mode shipMode) outcome {
	const slots = 32
	o := outcome{Tables: make([][]uint64, cfg.Images)}
	m := NewMachine(cfg)
	m.Launch(func(img *Image) {
		n, me := uint64(img.NumImages()), img.Rank()
		ca := NewCoarray[uint64](img, nil, slots)
		o.Tables[me] = ca.Local(img)
		x := uint64(me)*2654435761 + 1
		next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
		for bunch := 0; bunch < 3; bunch++ {
			img.Finish(nil, func() {
				for i := 0; i < 12; i++ {
					v := next()
					idx := int(v >> 8 % slots)
					mode.ship(img, int(v%n), 50*Nanosecond, func(r *Image) {
						ca.Local(r)[idx] ^= v
					}, WithBytes(16))
				}
				img.Finish(nil, func() {
					for i := 0; i < 4; i++ {
						v := next()
						idx, second := int(v>>8%slots), int(v>>16%n)
						mode.ship(img, int(v%n), 80*Nanosecond, func(r *Image) {
							ca.Local(r)[idx] += v
							mode.ship(r, second, 30*Nanosecond, func(q *Image) {
								ca.Local(q)[idx] ^= v >> 3
							}, WithBytes(16))
						}, WithBytes(24))
					}
				})
			})
		}
	})
	finishRun(t, m, &o)
	return o
}

// kvShaped is the shipping KV service in miniature: ranks 0 and 1 serve,
// the others each issue a paced stream of traced requests outside any
// finish; a request is a function shipped to the key's server, which
// ships the value back in a second one.
func kvShaped(t *testing.T, cfg Config, mode shipMode) outcome {
	const servers, perClient, slots = 2, 12, 8
	cfg.PathTracing, cfg.Metrics = true, true
	clients := cfg.Images - servers
	o := outcome{Tables: make([][]uint64, cfg.Images), Done: make([]Time, clients*perClient)}
	m := NewMachine(cfg)
	m.Launch(func(img *Image) {
		me := img.Rank()
		ca := NewCoarray[uint64](img, nil, slots)
		o.Tables[me] = ca.Local(img)
		if me < servers {
			return
		}
		client := me - servers
		for i := 0; i < perClient; i++ {
			img.Compute(Time(700+150*client) * Nanosecond)
			seq := client*perClient + i
			key := uint64(seq*7 + 3)
			srv, slot := int(key%servers), int(key/servers%slots)
			m.PathTracker().Begin(seq, client, img.Now(), img.Now())
			prev := img.PathScope(path.ReqCtx(seq))
			mode.ship(img, srv, Microsecond, func(s *Image) {
				tab := ca.Local(s)
				tab[slot] = tab[slot]*3 + key
				v := tab[slot]
				mode.ship(s, me, 0, func(c *Image) {
					ca.Local(c)[0] += v
					o.Done[seq] = c.Now()
					m.PathTracker().Finish(seq, c.Now())
				}, WithBytes(16))
			}, WithBytes(24))
			img.PathScope(prev)
		}
	})
	finishRun(t, m, &o)
	return o
}

func TestInlineEquivalentToComputeFirstProc(t *testing.T) {
	crash := func(c Config) Config {
		// Rank 1 serves in both programs; it dies with functions pending
		// on it and in flight to it.
		c.Fabric.Faults = &FaultPlan{Seed: c.Seed, Crash: map[int]Time{1: 4 * Microsecond}}
		c.FailureDetector = FailureDetectorConfig{Enabled: true, Heartbeat: Microsecond}
		return c
	}
	base := Config{Images: 6, Seed: 5}
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"plain", base},
		{"coalesced", func(c Config) Config { c.Fabric.Coalescing = Coalescing{MaxMsgs: 4}; return c }(base)},
		{"relaxed", func(c Config) Config { c.Relaxed = true; return c }(base)},
		{"traced", func(c Config) Config { c.TraceCapacity = 1 << 14; return c }(base)},
		{"crash", crash(base)},
	}
	programs := []struct {
		name string
		run  func(*testing.T, Config, shipMode) outcome
	}{{"ra", raShaped}, {"kv", kvShaped}}
	for _, p := range programs {
		for _, c := range cfgs {
			t.Run(p.name+"/"+c.name, func(t *testing.T) {
				want, got := p.run(t, c.cfg, asProc), p.run(t, c.cfg, asInline)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("the inline run differs from the proc run:\n got %+v\nwant %+v", got, want)
				}
				if strings.HasPrefix(c.name, "crash") != (want.Err != "" || want.Report.ImagesFailed > 0) {
					t.Errorf("images failed %d, error %q", want.Report.ImagesFailed, want.Err)
				}
				if want.Report.SpawnsExecuted == 0 {
					t.Error("test is void: nothing was shipped")
				}
			})
		}
	}
}

// inlinePanic runs a two-image program in which every image first runs
// pre and image 0 then calls spawn inside a finish, and returns what the
// run panicked with (nil if it did not).
func inlinePanic(t *testing.T, register func(m *Machine), pre, spawn func(img *Image)) (r any) {
	t.Helper()
	m := NewMachine(Config{Images: 2, Seed: 1})
	if register != nil {
		register(m)
	}
	defer m.Shutdown()
	defer func() { r = recover() }()
	m.Launch(func(img *Image) {
		if pre != nil {
			pre(img)
		}
		img.Finish(nil, func() {
			if img.Rank() == 0 {
				spawn(img)
			}
		})
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	return nil
}

// Every operation that can park, called inside an inline function: a typed
// panic that names the function and the operation.
func TestInlineParkingOperationsPanic(t *testing.T) {
	var ca *Coarray[int]
	cases := []struct {
		op   string
		body SpawnFn
	}{
		{"Compute", func(r *Image) { r.Compute(Microsecond) }},
		{"EventWait", func(r *Image) { r.EventWait(r.NewEvent()) }},
		{"Lock", func(r *Image) { r.Lock(0, 0) }},
		{"Get", func(r *Image) { Get(r, ca.Sec(0, 0, 1)) }},
		{"Put", func(r *Image) { Put(r, ca.Sec(0, 0, 1), []int{1}) }},
		{"Finish", func(r *Image) { r.Finish(nil, func() {}) }},
		{"Cofence", func(r *Image) {
			CopyAsync(r, ca.Sec(0, 0, 1), Local([]int{1}))
			r.Cofence(AllowNone, AllowNone)
		}},
		{"Barrier", func(r *Image) { r.Barrier(nil) }},
		{"Broadcast", func(r *Image) { r.Broadcast(nil, 0, 1, 8) }},
		{"Reduce", func(r *Image) { r.Reduce(nil, 0, Sum, []int64{1}) }},
		{"Allreduce", func(r *Image) { r.Allreduce(nil, Sum, []int64{1}) }},
		{"Gather", func(r *Image) { r.Gather(nil, 0, 1, 8) }},
		{"Scatter", func(r *Image) { r.Scatter(nil, 0, []any{1, 2}, 8) }},
		{"Alltoall", func(r *Image) { r.Alltoall(nil, []any{1, 2}, 8) }},
		{"Scan", func(r *Image) { r.Scan(nil, Sum, []int64{1}) }},
		{"SortKeys", func(r *Image) { r.SortKeys(nil, []int64{1}) }},
		{"Gather", func(r *Image) { r.TeamSplit(nil, 0, 0) }},
		{"NewCoarray", func(r *Image) { NewCoarray[int](r, nil, 1) }},
		{"asynchronous collective", func(r *Image) { r.AllreduceAsync(nil, Sum, []int64{1}) }},
		{"NewPollSet", func(r *Image) { r.NewPollSet() }},
	}
	for _, c := range cases {
		t.Run(strings.ReplaceAll(c.op, " ", "-"), func(t *testing.T) {
			got := inlinePanic(t, nil,
				func(img *Image) { ca = NewCoarray[int](img, nil, 2) },
				func(img *Image) { img.Spawn(1, c.body, Inline(100*Nanosecond)) })
			perr, ok := got.(*InlineParkError)
			if !ok {
				t.Fatalf("panicked with %T (%v), want *InlineParkError", got, got)
			}
			if perr.Op != c.op || !strings.Contains(perr.Fn, "TestInlineParkingOperationsPanic") {
				t.Errorf("error names operation %q in function %q, want %q in a closure of this test", perr.Op, perr.Fn, c.op)
			}
			if !strings.Contains(perr.Error(), c.op) || !strings.Contains(perr.Error(), perr.Fn) {
				t.Errorf("message %q names neither", perr.Error())
			}
		})
	}
}

// What an inline function may do: fence what is already complete, ship
// further functions (inline or not) under the finish it inherited, touch
// its own image's data through Get/Put's local path, notify an event,
// start a copy it does not wait for.
func TestInlineNonParkingOperationsAreLegal(t *testing.T) {
	pooledAndQuarantined(t, func(t *testing.T) {
		var ran, nested, notified int
		_, err := Run(Config{Images: 3, Seed: 2}, func(img *Image) {
			ca := NewCoarray[int](img, nil, 4)
			ev := img.NewEvent()
			evs := img.Broadcast(nil, 0, img.Gather(nil, 0, ev, 8), 24).([]any)
			img.Finish(nil, func() {
				if img.Rank() != 0 {
					return
				}
				for i := 0; i < 8; i++ {
					img.Spawn(1, func(r *Image) {
						ran++
						r.Cofence(AllowNone, AllowNone) // nothing pending
						Put(r, ca.Sec(1, 0, 1), []int{Get(r, ca.Sec(1, 0, 1))[0] + 1})
						r.Spawn(2, func(q *Image) { nested++; ca.Local(q)[1]++ }, Inline(0))
						r.Spawn(2, func(q *Image) { q.Compute(Microsecond); nested++ })
						CopyAsync(r, ca.Sec(2, 2, 3), Local([]int{7}))
						r.Cofence(AllowAny, AllowAny) // the copy may pass
						r.EventNotify(evs[0].(*Event))
						if r.Payload() != nil || r.Rank() != 1 || r.Now() < 200*Nanosecond {
							t.Errorf("inline Image: rank %d, payload %v, now %v", r.Rank(), r.Payload(), r.Now())
						}
					}, Inline(200*Nanosecond))
				}
			})
			if img.Rank() == 0 {
				for i := 0; i < 8; i++ {
					img.EventWait(ev)
					notified++
				}
			}
			img.Barrier(nil)
			switch loc := ca.Local(img); img.Rank() {
			case 1:
				if loc[0] != 8 {
					t.Errorf("image 1 counted %d local read-modify-writes, want 8", loc[0])
				}
			case 2:
				if loc[1] != 8 || loc[2] != 7 {
					t.Errorf("image 2 saw %d nested inline functions and copy value %d, want 8 and 7", loc[1], loc[2])
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if ran != 8 || nested != 16 || notified != 8 {
			t.Errorf("%d functions, %d nested, %d notifies; want 8, 16, 8", ran, nested, notified)
		}
	})
}

// bump is a named procedure shipped as a record: it counts its runs.
type bump struct {
	t     *testing.T
	ran   int
	ranAt Time
}

func (b *bump) Ship(img *Image) {
	if img.proc != nil {
		b.t.Error("a function shipped Inline was given a proc")
	}
	b.ran++
	b.ranAt = img.Now()
}

// A named procedure shipped with Inline takes the inline path through
// SpawnRecord, is reported under the spawn-exec label, and costs its
// target the declared service time.
func TestInlineNamedFunction(t *testing.T) {
	var shippedAt Time
	b := &bump{t: t}
	m := NewMachine(Config{Images: 2, Seed: 1, TraceCapacity: 1 << 10})
	m.Launch(func(img *Image) {
		img.Finish(nil, func() {
			if img.Rank() == 0 {
				shippedAt = img.Now()
				img.SpawnRecord(1, b, Inline(3*Microsecond))
			}
		})
	})
	if _, err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if b.ran != 1 {
		t.Errorf("the function ran %d times, want 1", b.ran)
	}
	if b.ranAt-shippedAt < 3*Microsecond {
		t.Errorf("ran %v after it shipped, less than its 3us of service", b.ranAt-shippedAt)
	}
	var spans int
	for _, e := range m.Trace().Events() {
		if e.Name == "spawn-exec" {
			spans++
			if e.Dur != 3*Microsecond {
				t.Errorf("execution span lasts %v, want the 3us from delivery to the end of the body", e.Dur)
			}
		}
	}
	if spans != 1 {
		t.Errorf("%d spawn-exec spans, want 1", spans)
	}
}

// Strand ids, like every other per-function counter, are handed out at
// delivery whichever vehicle runs the function. On a fabric with no
// overheads a proc function and an inline one reach image 1 at the same
// instant; the proc's is delivered first and must get the first id.
func TestStrandIDsFollowDeliveryOrderAcrossVehicles(t *testing.T) {
	var procTid, inlineTid int
	var procAt, inlineAt Time
	rep, err := Run(Config{Images: 3, Seed: 1, Fabric: FabricConfig{Latency: 1000}}, func(img *Image) {
		img.Finish(nil, func() {
			switch img.Rank() {
			case 0:
				img.Spawn(1, func(r *Image) { procTid, procAt = r.tid, r.Now() })
			case 2:
				img.Spawn(1, func(r *Image) { inlineTid, inlineAt = r.tid, r.Now() }, Inline(0))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if procAt != 1000 || inlineAt != 1000 {
		t.Errorf("the functions ran at %v and %v, want both at 1000", procAt, inlineAt)
	}
	if procTid != 1 || inlineTid != 2 {
		t.Errorf("strand ids: proc %d, inline %d; want 1 and 2, in delivery order", procTid, inlineTid)
	}
	if rep.SpawnsExecuted != 2 {
		t.Errorf("%d spawns executed, want 2", rep.SpawnsExecuted)
	}
}

// Warm, one at a time: an inline no-op under finish allocates nothing,
// since both of its records are recycled (the caller's closure would be
// one object, when it captures anything).
func TestInlineSpawnAllocs(t *testing.T) {
	skipUnlessPinned(t)
	if got := spawnAllocs(t, func(*Image) {}, Inline(0)); got > 0 {
		t.Errorf("allocations per inline no-op Spawn = %v, want 0", got)
	}
	if got := spawnAllocs(t, func(*Image) {}, WithBytes(16), Inline(50*Nanosecond)); got > 0 {
		t.Errorf("allocations per inline Spawn with a service time = %v, want 0", got)
	}
}

// The KV service's request and reply, both inline: the two closures that
// capture the request's state, and nothing of the spawns.
func TestInlineRequestReplyAllocs(t *testing.T) {
	skipUnlessPinned(t)
	var allocs float64
	replies := 0
	_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
		if img.Rank() != 0 {
			return
		}
		key := 0
		request := func() {
			k := key
			key++
			img.Spawn(1, func(srv *Image) {
				v := k * 2
				srv.Spawn(0, func(*Image) { replies += v - 2*k + 1 }, WithBytes(16), Inline(0))
			}, WithBytes(24), Inline(Microsecond))
			img.Compute(20 * Microsecond) // past the reply's ack
		}
		request()
		allocs = testing.AllocsPerRun(200, request)
	})
	if err != nil {
		t.Fatal(err)
	}
	if replies != 202 {
		t.Fatalf("%d replies ran, want 202", replies)
	}
	t.Logf("%v allocations per inline request + reply", allocs)
	if allocs > 2 {
		t.Errorf("allocations per inline request + reply = %v, want ≤ 2", allocs)
	}
}

// Size classes the benchmark's bytes-per-op rows sit on: uts ships by the
// proc path and has 2% of room.
func TestPoolSpawnRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(sim.Proc{}); n != 104 {
		t.Errorf("sim.Proc is %d bytes, want 104", n)
	}
	// A pooled inline record, and a proc's record with its Proc in it: one
	// 256-byte object while the Image keeps its rare half (its finish
	// stack and race state, 56 B) behind one pointer.
	if n := unsafe.Sizeof(shipped{}); n > 160 {
		t.Errorf("shipped is %d bytes, want ≤ 160", n)
	}
	if n := unsafe.Sizeof(procShipped{}); n > 256 {
		t.Errorf("procShipped is %d bytes, want ≤ 256", n)
	}
}

// The Image of an inline function dies with the function. With every
// released record quarantined, using one that was kept panics; it does
// not read the record of whichever function runs next.
func TestInlineKeptImagePanicsUnderQuarantine(t *testing.T) {
	prev := sim.QuarantinePools
	sim.QuarantinePools = true
	defer func() { sim.QuarantinePools = prev }()
	var kept *Image
	_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
		img.Finish(nil, func() {
			if img.Rank() == 0 {
				img.Spawn(1, func(r *Image) { kept = r }, Inline(0))
			}
		})
	})
	if err != nil || kept == nil {
		t.Fatalf("run: %v, kept %v", err, kept)
	}
	for name, use := range map[string]func(){
		"Rank":  func() { kept.Rank() },
		"Now":   func() { kept.Now() },
		"Spawn": func() { kept.Spawn(0, func(*Image) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an Image kept past its inline function returned normally", name)
				}
			}()
			use()
		}()
	}
}

// A function that leaves an operation pending on its cofence scope keeps
// its record: the operation points into it until it completes. Only the
// records of functions that left nothing behind go back to the pool.
func TestInlineRecordWithPendingOpIsNotRecycled(t *testing.T) {
	if sim.QuarantinePools {
		t.Skip("counts pooled records")
	}
	for _, leavePending := range []bool{true, false} {
		var pendingAtExit, value int
		m := NewMachine(Config{Images: 2, Seed: 1})
		m.Launch(func(img *Image) {
			ca := NewCoarray[int](img, nil, 2)
			img.Finish(nil, func() {
				for i := 0; i < 4 && img.Rank() == 0; i++ {
					img.Spawn(1, func(r *Image) {
						if leavePending {
							// A put from a local buffer completes locally at
							// injection, after this function has returned.
							CopyAsync(r, ca.Sec(0, 1, 2), Local([]int{i + 1}))
						}
						pendingAtExit += r.PendingImplicitOps()
					}, Inline(0))
				}
			})
			if img.Rank() == 0 {
				value = ca.Local(img)[1]
			}
		})
		if _, err := m.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
		pooled := m.inlines.Len()
		if leavePending && (pendingAtExit != 4 || value != 4 || pooled != 0) {
			t.Errorf("%d copies pending at function exit, last value %d, %d records pooled; want 4, 4, 0", pendingAtExit, value, pooled)
		}
		if !leavePending && (pendingAtExit != 0 || pooled == 0) {
			t.Errorf("%d operations pending at function exit, %d records pooled; want 0 and some", pendingAtExit, pooled)
		}
	}
}
