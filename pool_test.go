package caf

// Tests of the allocation-free message path as seen from the language
// level: what a blocking Get/Put pair and a shipped function still
// allocate once the record pools of internal/fabric and internal/rt are
// warm (DESIGN §4.14), that a quarantined run equals a pooled one, and
// that the per-image list of outstanding deliveries stays bounded.

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"caf2go/internal/sim"
)

// pooledAndQuarantined runs body with the record pools on, then with
// every released record quarantined.
func pooledAndQuarantined(t *testing.T, body func(t *testing.T)) {
	t.Run("pooled", body)
	t.Run("quarantined", func(t *testing.T) {
		prev := sim.QuarantinePools
		sim.QuarantinePools = true
		defer func() { sim.QuarantinePools = prev }()
		body(t)
	})
}

func skipUnlessPinned(t *testing.T) {
	if sim.GoRace || sim.QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
}

// The inner loop of the reference RandomAccess (Fig. 13): blocking Get,
// local update, blocking Put. The request records come back from the
// coarray's free lists and the put's one element rides in its record, so
// what is left of Get is its result slice, and GetInto, which reads into
// the caller's own storage, allocates nothing.
func TestPoolGetPutAllocs(t *testing.T) {
	skipUnlessPinned(t)
	var getAllocs, intoAllocs float64
	_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
		ca := NewCoarray[uint64](img, nil, 512)
		if img.Rank() != 0 {
			return
		}
		i := 0
		var x [1]uint64
		get := func() {
			idx := i % 512
			v := Get(img, ca.Sec(1, idx, idx+1))
			img.Compute(50 * Nanosecond)
			Put(img, ca.Sec(1, idx, idx+1), []uint64{v[0] ^ uint64(i)})
			i++
		}
		into := func() {
			idx := i % 512
			GetInto(img, x[:], ca.Sec(1, idx, idx+1))
			img.Compute(50 * Nanosecond)
			Put(img, ca.Sec(1, idx, idx+1), []uint64{x[0] ^ uint64(i)})
			i++
		}
		get() // warm-up: fills the pools
		getAllocs = testing.AllocsPerRun(200, get)
		intoAllocs = testing.AllocsPerRun(200, into)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v allocations per Get + Compute + Put, %v per GetInto + Compute + Put", getAllocs, intoAllocs)
	if getAllocs > 1 {
		t.Errorf("allocations per Get + Compute + Put = %v, want ≤ 1", getAllocs)
	}
	if intoAllocs > 0 {
		t.Errorf("allocations per GetInto + Compute + Put = %v, want 0", intoAllocs)
	}
}

// An EventNotify waits for the remote updates outstanding at its call
// through its one record, however many there are: with sixteen spawns in
// flight a notify allocates that record (its *Op, its payload and its
// countdown), not one callback per outstanding spawn. The notified
// event's count still says every notify fired after the spawns landed.
func TestPoolEventNotifyAllocs(t *testing.T) {
	skipUnlessPinned(t)
	const spawns, notifies = 16, 4
	var allocs float64
	var count int64
	_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
		if img.Rank() != 0 {
			return
		}
		ev := img.NewEvent()
		for i := 0; i < spawns; i++ {
			img.Spawn(1, func(*Image) {})
		}
		if n := len(img.st.pendingDeliv); n != spawns {
			t.Fatalf("%d spawns outstanding, want %d", n, spawns)
		}
		// AllocsPerRun calls the notify once more to warm up.
		allocs = testing.AllocsPerRun(notifies, func() { img.EventNotify(ev) })
		if got := img.EventCount(ev); got != 0 {
			t.Errorf("a notify fired with %d spawns outstanding", spawns)
		}
		img.Compute(100 * Microsecond)
		count = img.EventCount(ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != notifies+1 {
		t.Errorf("event count %d after the spawns landed, want %d", count, notifies+1)
	}
	t.Logf("%v allocations per EventNotify over %d outstanding spawns", allocs, spawns)
	if allocs > 1 {
		t.Errorf("allocations per EventNotify over %d outstanding spawns = %v, want ≤ 1", spawns, allocs)
	}
}

// A no-op shipped function under finish, one at a time so that every
// pooled record is back before the next spawn, the initiator's spawnOp
// among them: what is left is the target's shipped record, owned because
// a proc's function may keep its Image, and the handler's Proc (and the
// caller's function value, when it captures anything).
func TestPoolSpawnAllocs(t *testing.T) {
	skipUnlessPinned(t)
	var allocs float64
	_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
		img.Finish(nil, func() {
			if img.Rank() != 0 {
				return
			}
			spawn := func() {
				img.Spawn(1, func(*Image) {})
				img.Compute(10 * Microsecond) // past the ack
			}
			spawn()
			allocs = testing.AllocsPerRun(200, spawn)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v allocations per no-op Spawn", allocs)
	if allocs > 2 {
		t.Errorf("allocations per no-op Spawn = %v, want ≤ 2", allocs)
	}
}

// spawnAllocs measures one warm Spawn of fn to image 1 under finish.
func spawnAllocs(t *testing.T, fn SpawnFn, opts ...SpawnOpt) float64 {
	t.Helper()
	var allocs float64
	_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
		img.Finish(nil, func() {
			if img.Rank() != 0 {
				return
			}
			spawn := func() {
				img.Spawn(1, fn, opts...)
				img.Compute(10 * Microsecond)
			}
			spawn()
			allocs = testing.AllocsPerRun(200, spawn)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v allocations per Spawn with %d options", allocs, len(opts))
	return allocs
}

// Options are values applied by a switch: a spawn with WithBytes (every
// RandomAccess update) or Inline (every KV request and reply) costs what a
// bare one of its vehicle does. The options no benchmarked spawn uses
// make the spawn's spawnExtra, one object for all of them.
func TestPoolSpawnOptsDoNotAllocate(t *testing.T) {
	skipUnlessPinned(t)
	noop := func(*Image) {}
	bare := spawnAllocs(t, noop)
	if got := spawnAllocs(t, noop, WithBytes(16)); got != bare {
		t.Errorf("allocations per Spawn with WithBytes = %v, without = %v", got, bare)
	}
	inline := spawnAllocs(t, noop, Inline(0))
	if got := spawnAllocs(t, noop, WithBytes(16), Inline(Nanosecond)); got != inline {
		t.Errorf("allocations per inline Spawn with WithBytes = %v, without = %v", got, inline)
	}
	if got := spawnAllocs(t, noop, WithBytes(16), withMirrorPath()); got != bare+1 {
		t.Errorf("allocations per Spawn with a mirror tag = %v, want %v (its spawnExtra)", got, bare+1)
	}
}

// The KV service's request: a shipped function that ships its reply back.
// Two spawns by proc, each leaving its shipped record and its Proc, and
// two closures that capture the request's state.
func TestPoolSpawnReplyPairAllocs(t *testing.T) {
	skipUnlessPinned(t)
	var allocs float64
	replies := 0
	_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
		img.Finish(nil, func() {
			if img.Rank() != 0 {
				return
			}
			key := 0
			request := func() {
				k := key
				key++
				img.Spawn(1, func(srv *Image) {
					v := k * 2
					srv.Spawn(0, func(*Image) { replies += v - 2*k + 1 }, WithBytes(24))
				}, WithBytes(16))
				img.Compute(20 * Microsecond) // past the reply's ack
			}
			request()
			allocs = testing.AllocsPerRun(200, request)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if replies != 202 {
		t.Fatalf("%d replies ran, want 202", replies)
	}
	t.Logf("%v allocations per request + reply", allocs)
	if allocs > 6 {
		t.Errorf("allocations per request + reply = %v, want ≤ 6", allocs)
	}
}

// An implicit put with a cofence behind it: the copy's one record, which
// is also its injection completion and holds its one-element snapshot.
func TestPoolCopyAsyncAllocs(t *testing.T) {
	skipUnlessPinned(t)
	var allocs float64
	_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
		ca := NewCoarray[uint64](img, nil, 1)
		if img.Rank() != 0 {
			return
		}
		src := []uint64{1}
		put := func() {
			CopyAsync(img, ca.Sec(1, 0, 1), Local(src))
			img.Cofence(AllowNone, AllowNone)
			img.Compute(10 * Microsecond)
		}
		put()
		allocs = testing.AllocsPerRun(200, put)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v allocations per CopyAsync + Cofence", allocs)
	if allocs > 1 {
		t.Errorf("allocations per CopyAsync + Cofence = %v, want ≤ 1", allocs)
	}
}

// The two records of a spawn with a handle (SpawnHandle) are owned, not
// pooled, because user code may hold on to both: the *Op after the function returned (a continuation
// registered late fires inline, on the spawn's own state) and the
// handler's *Image (a continuation that captured it spawns from it). Run
// pooled and quarantined, with enough later spawns in between that a
// recycled record would have been taken again.
func TestPoolSpawnRecordsOutliveTheSpawn(t *testing.T) {
	pooledAndQuarantined(t, func(t *testing.T) {
		var lateFired, fromKept, churn int
		_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
			var op *Op
			var kept *Image
			img.Finish(nil, func() {
				if img.Rank() == 0 {
					op = img.SpawnHandle(1, func(r *Image) { kept = r })
				}
			})
			img.Finish(nil, func() {
				for i := 0; i < 64 && img.Rank() == 0; i++ {
					img.Spawn(1, func(*Image) { churn++ })
				}
			})
			if img.Rank() != 0 {
				return
			}
			if !op.Done(GlobalCompletion) || kept == nil {
				t.Fatal("finish returned before the shipped function ran")
			}
			if op.Kind() != "spawn" || op.Initiator() != 0 || !op.Done(LocalData) || !op.Done(LocalCompletion) {
				t.Errorf("kept handle was overwritten: %q from %d", op.Kind(), op.Initiator())
			}
			op.OnGlobalCompletion(func() { lateFired++ })
			if lateFired != 1 {
				t.Errorf("late continuation fired %d times inline, want 1", lateFired)
			}
			// The kept Image still is image 1's view of the machine; a
			// spawn from it is image 1 shipping a function to image 0.
			if kept.Rank() != 1 || kept.Payload() != nil {
				t.Errorf("kept Image was overwritten: rank %d", kept.Rank())
			}
			e := img.NewEvent()
			kept.Spawn(0, func(r *Image) { fromKept += r.Rank() + 1 }, WithEvent(e))
			img.EventWait(e)
		})
		if err != nil {
			t.Fatal(err)
		}
		if fromKept != 1 || churn != 64 {
			t.Errorf("spawn from the kept Image ran %d times, %d churn spawns ran; want 1, 64", fromKept, churn)
		}
	})
}

// A shipped function that ships the next one (a steal handing work on, a
// request forwarded down a chain) must not keep its ancestors' records
// alive: the new spawn's cofence registration points into the spawning
// context's record only until it completes. Each link captures a 64 KiB
// chunk; with the chain retained the last link would see all of them live.
func TestPoolSpawnChainDoesNotRetainAncestors(t *testing.T) {
	const depth, chunk = 128, 64 << 10
	var grown uint64
	_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
		img.Finish(nil, func() {
			if img.Rank() != 0 {
				return
			}
			var before runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			var link func(r *Image, left int)
			link = func(r *Image, left int) {
				if left == 0 {
					var after runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&after)
					if after.HeapAlloc > before.HeapAlloc {
						grown = after.HeapAlloc - before.HeapAlloc
					}
					return
				}
				work := make([]byte, chunk)
				r.Spawn(1-r.Rank(), func(n *Image) {
					work[0]++
					link(n, left-1)
				})
				r.Compute(Microsecond)
			}
			link(img, depth)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if grown > depth*chunk/4 {
		t.Errorf("%d KiB live at the end of a chain of %d spawns carrying %d KiB each: ancestors are retained",
			grown>>10, depth, chunk>>10)
	}
}

// An image that spawns and copies but never notifies used to keep every
// delivery token it ever made: the list was pruned only by EventNotify.
// It must follow the number of deliveries in flight instead: a token
// leaves when it completes (it is a field of its operation's record,
// which the list must not keep alive).
func TestPoolPendingDelivStaysBounded(t *testing.T) {
	const spawns = 10000
	inFlightPeak, lenPeak := 0, 0
	_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
		if img.Rank() != 0 {
			return
		}
		for i := 0; i < spawns; i++ {
			// Outside any finish, no notify: bursts of eight, then a pause
			// long enough for their acks.
			img.Spawn(1, func(*Image) {})
			inFlight := 0
			for _, tok := range img.st.pendingDeliv {
				if !tok.done {
					inFlight++
				}
			}
			inFlightPeak = max(inFlightPeak, inFlight)
			lenPeak = max(lenPeak, len(img.st.pendingDeliv))
			if i%8 == 7 {
				img.Compute(10 * Microsecond)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if inFlightPeak != 8 {
		t.Fatalf("in-flight high-water mark = %d, want the burst of 8", inFlightPeak)
	}
	if lenPeak > inFlightPeak {
		t.Errorf("pendingDeliv reached %d entries over %d spawns with at most %d in flight",
			lenPeak, spawns, inFlightPeak)
	}
}

// quarantineMix exercises every record kind from the language level:
// blocking get/put, a lock handed between contenders (a Delivery detached
// across other dispatches), copies with cofence, shipped functions under
// finish, by proc and inline, and an event notified behind outstanding
// deliveries.
func quarantineMix(t *testing.T, cfg Config) (Report, []uint64) {
	var sum []uint64
	rep, err := Run(cfg, func(img *Image) {
		n, me := img.NumImages(), img.Rank()
		ca := NewCoarray[uint64](img, nil, 16)
		right := (me + 1) % n
		for i := 0; i < 8; i++ {
			v := Get(img, ca.Sec(right, i, i+1))
			Put(img, ca.Sec(right, i, i+1), []uint64{v[0] + uint64(me+1)})
		}
		for i := 0; i < 4; i++ {
			img.Lock(0, 0)
			img.Compute(200 * Nanosecond)
			img.Unlock(0, 0)
		}
		src := []uint64{uint64(me), uint64(me) * 2}
		CopyAsync(img, ca.Sec(right, 8, 10), Local(src))
		img.Cofence(AllowNone, AllowNone)
		img.Finish(nil, func() {
			for i := 0; i < 6; i++ {
				img.Spawn((me+i)%n, func(r *Image) {
					ca.Local(r)[10+i]++
					r.Compute(100 * Nanosecond)
				})
				img.Spawn((me+i)%n, func(r *Image) { ca.Local(r)[10+i] += 2 }, Inline(100*Nanosecond))
			}
		})
		mine := img.NewEvent()
		evs := img.Broadcast(nil, 0, img.Gather(nil, 0, mine, 8), 8*n).([]any)
		img.Spawn(right, func(*Image) {})
		img.EventNotify(evs[right].(*Event))
		img.EventWait(mine)
		img.Barrier(nil)
		if me == 0 {
			sum = append([]uint64(nil), Get(img, ca.At(1))...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep, sum
}

// A run with every released record quarantined equals the pooled run:
// recycling a record must be invisible, and no record may be touched
// after what its owner took for the last reference.
func TestQuarantineRunEqualsPooledRun(t *testing.T) {
	for name, cfg := range map[string]Config{
		"plain":     {Images: 4, Seed: 3},
		"coalesced": {Images: 4, Seed: 3, Fabric: FabricConfig{Coalescing: Coalescing{MaxMsgs: 4}}},
		"faults":    {Images: 4, Seed: 3, Fabric: FabricConfig{Faults: &FaultPlan{Seed: 3, Drop: 0.1, Dup: 0.2, Jitter: 5 * Microsecond}}},
		"traced":    {Images: 4, Seed: 3, TraceCapacity: 1 << 12, Metrics: true, PathTracing: true},
	} {
		t.Run(name, func(t *testing.T) {
			wantRep, wantSum := quarantineMix(t, cfg)
			prev := sim.QuarantinePools
			sim.QuarantinePools = true
			defer func() { sim.QuarantinePools = prev }()
			gotRep, gotSum := quarantineMix(t, cfg)
			if !reflect.DeepEqual(gotRep, wantRep) {
				t.Errorf("quarantined report differs:\n got %+v\nwant %+v", gotRep, wantRep)
			}
			if !reflect.DeepEqual(gotSum, wantSum) {
				t.Errorf("quarantined data differs: got %v, want %v", gotSum, wantSum)
			}
		})
	}
}

// getPutLoop runs blocking Gets and Puts from every image into its right
// neighbour's shard, contiguous and strided, and returns the report, the
// final data and the coarray.
func getPutLoop(t *testing.T, cfg Config) (Report, []uint64, *Coarray[uint64]) {
	var sum []uint64
	var arr *Coarray[uint64]
	rep, err := Run(cfg, func(img *Image) {
		n, me := img.NumImages(), img.Rank()
		ca := NewCoarray[uint64](img, nil, 32)
		arr = ca
		right := (me + 1) % n
		for i := 0; i < 16; i++ {
			v := Get(img, ca.Sec(right, i, i+1))
			Put(img, ca.Sec(right, i, i+1), []uint64{v[0] + uint64(me+i)})
			w := Get(img, ca.SecStride(right, 16, 32, 4))
			w[i%4] += uint64(i)
			Put(img, ca.SecStride(right, 16, 32, 4), w)
		}
		img.Barrier(nil)
		if me == 0 {
			for r := 0; r < n; r++ {
				sum = append(sum, Get(img, ca.At(r))...)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep, sum, arr
}

// A blocking Get or Put releases its request records to the coarray at
// its return. Recycling them is invisible: the quarantined run, where no
// released record is taken again, equals the pooled one.
func TestQuarantineGetPutLoopEqualsPooledLoop(t *testing.T) {
	cfg := Config{Images: 4, Seed: 5}
	prev := sim.QuarantinePools
	defer func() { sim.QuarantinePools = prev }()
	sim.QuarantinePools = false
	wantRep, wantSum, ca := getPutLoop(t, cfg)
	if g, p := ca.gets.Len(), ca.puts.Len(); g == 0 || g > 4 || p == 0 || p > 4 {
		t.Errorf("pooled run left %d get and %d put records on the coarray, want 1..4 each", g, p)
	}
	sim.QuarantinePools = true
	gotRep, gotSum, ca := getPutLoop(t, cfg)
	if g, p := ca.gets.Len(), ca.puts.Len(); g != 0 || p != 0 {
		t.Errorf("quarantined run kept %d get and %d put records", g, p)
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Errorf("quarantined report differs:\n got %+v\nwant %+v", gotRep, wantRep)
	}
	if !reflect.DeepEqual(gotSum, wantSum) {
		t.Errorf("quarantined data differs: got %v, want %v", gotSum, wantSum)
	}
}

// A request is released at its call's return under a failure detector
// and a fault plan too: the fabric's dedup drops every duplicate before
// dispatch, so nothing serves a request after the reply, and a Call that
// a declaration aborts panics out before the release, so the request the
// owner may still serve is never released. The coarray's free lists fill
// in the pooled run, and the quarantined run lets nothing through: serving
// a released record would panic. For Get, GetInto and Put alike.
func TestQuarantineGetPutUnderDetectorOrFaultsRecycles(t *testing.T) {
	detector := FailureDetectorConfig{Enabled: true, Heartbeat: Microsecond}
	for name, cfg := range map[string]Config{
		"detector": {Images: 3, Seed: 1, FailureDetector: detector},
		"aborted": {Images: 3, Seed: 1, FailureDetector: detector,
			Fabric: FabricConfig{Faults: &FaultPlan{Seed: 1, Crash: map[int]Time{1: 40 * Microsecond}}}},
		"dup": {Images: 3, Seed: 1, Fabric: FabricConfig{Faults: &FaultPlan{Seed: 1, Dup: 1.0, Jitter: 5 * Microsecond}}},
	} {
		t.Run(name, func(t *testing.T) {
			pooledAndQuarantined(t, func(t *testing.T) {
				var arr *Coarray[uint64]
				gets := 0
				_, err := Run(cfg, func(img *Image) {
					ca := NewCoarray[uint64](img, nil, 8)
					arr = ca
					if img.Rank() != 0 {
						img.Compute(100 * Microsecond)
						return
					}
					// Rank 1 dies at 40 µs in the "aborted" run, after three
					// iterations: the call in flight when the declaration
					// comes is aborted and keeps its record.
					for i := 0; i < 64; i++ {
						sec := ca.Sec(1+i%2, i%8, i%8+1)
						v := Get(img, sec)
						var x [1]uint64
						GetInto(img, x[:], sec)
						if x[0] != v[0] {
							t.Errorf("GetInto read %d after Get read %d", x[0], v[0])
						}
						Put(img, sec, []uint64{v[0] + 1})
						gets++
					}
				})
				if name == "aborted" {
					var ferr *ImageFailedError
					if !errors.As(err, &ferr) || gets == 64 {
						t.Fatalf("the crash aborted no Get: %d completed, err %v", gets, err)
					}
				} else if err != nil || gets != 64 {
					t.Fatalf("%d of 64 Get/Put pairs completed, err %v", gets, err)
				}
				// The aborted call's record stays its own, so the
				// "aborted" run may pool no record of that kind.
				g, p := arr.gets.Len(), arr.puts.Len()
				if !sim.QuarantinePools && (g+p == 0 || name != "aborted" && (g == 0 || p == 0)) {
					t.Errorf("%d get and %d put records pooled under a detector or a fault plan", g, p)
				}
			})
		})
	}
}

// Fail-stop aborts every parked Call at a declaration, a Get to a live
// owner too: here image 1 dies while image 0's request to image 2 is on
// the wire, and image 2 serves it after the Call has aborted. The aborted
// call panics out before its release, so the owner serves a record that
// nobody released: no panic under quarantine, and nothing on the free list.
func TestQuarantineGetAbortedWhileInFlightIsNotReleased(t *testing.T) {
	pooledAndQuarantined(t, func(t *testing.T) {
		m := NewMachine(Config{Images: 3, Seed: 1,
			FailureDetector: FailureDetectorConfig{Enabled: true, Heartbeat: Microsecond},
			Fabric:          FabricConfig{Faults: &FaultPlan{Seed: 1, Crash: map[int]Time{1: 20 * Microsecond}}}})
		owner := m.k.Fabric().Endpoint(2)
		var arr *Coarray[uint64]
		var issuedAt, abortedAt Time
		var receivedAtAbort uint64
		m.Launch(func(img *Image) {
			ca := NewCoarray[uint64](img, nil, 8)
			arr = ca
			if img.Rank() != 0 {
				img.Compute(100 * Microsecond)
				return
			}
			// Image 1 is declared dead at 22 µs; the request leaves half
			// a microsecond before, and its wire latency is longer.
			img.Compute(21*Microsecond + 500*Nanosecond - img.Now())
			issuedAt = img.Now()
			// Runs as the abort unwinds the call, which it does not stop.
			defer func() { abortedAt, receivedAtAbort = img.Now(), owner.Received }()
			var x [1]uint64
			GetInto(img, x[:], ca.Sec(2, 0, 1))
			t.Error("a Get parked across a declaration returned")
		})
		_, err := m.RunToCompletion()
		var ferr *ImageFailedError
		if !errors.As(err, &ferr) {
			t.Fatalf("err = %v, want the image failure", err)
		}
		if deadAt, _ := m.ImageDeadAt(1); abortedAt != deadAt || issuedAt >= deadAt {
			t.Errorf("Get issued at %v, aborted at %v; image 1 declared dead at %v", issuedAt, abortedAt, deadAt)
		}
		if got := owner.Received; got != receivedAtAbort+1 {
			t.Errorf("owner received %d messages by the abort and %d in all: it did not serve the request after it", receivedAtAbort, got)
		}
		if arr.gets.Len() != 0 {
			t.Errorf("%d get records pooled: the aborted call's request was released", arr.gets.Len())
		}
	})
}

// A released request is zeroed. Under sim.QuarantinePools it is never
// taken again, so an owner that served it after its release would panic
// with the record's kind instead of serving the next call's request.
func TestQuarantineReleasedRequestIsDead(t *testing.T) {
	prev := sim.QuarantinePools
	sim.QuarantinePools = true
	defer func() { sim.QuarantinePools = prev }()
	_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
		ca := NewCoarray[uint64](img, nil, 4)
		if img.Rank() != 0 {
			return
		}
		get := &getReq[uint64]{src: ca.Sec(1, 0, 1), bytes: 24}
		put := &putReq[uint64]{dst: ca.Sec(1, 0, 1), data: []uint64{1}}
		releaseReq(&ca.gets, get)
		releaseReq(&ca.puts, put)
		if ca.gets.Len() != 0 || ca.puts.Len() != 0 {
			t.Fatal("a quarantined request went back on the free list")
		}
		for name, r := range map[string]blockingReq{"get": get, "put": put} {
			func() {
				defer func() {
					if p := recover(); p != errReleasedReq {
						t.Errorf("serving a released %s request: panic = %v, want %q", name, p, errReleasedReq)
					}
				}()
				r.serve()
			}()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A spawn's record fits the 128-byte size class: it stores no cofence
// record (its registration is complete at birth) and no request context
// (it is the op's child context), the halves few spawns use
// (continuations on the op, waiters on its delivery token) hang off one
// pointer each, and the Shipper shares its one interface word with the
// spawnExtra of event, payload, mirror tag and fork clock that wraps it.
func TestPoolSpawnOpFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(spawnOp{}); got > 128 {
		t.Errorf("sizeof(spawnOp) = %d, want ≤ 128", got)
	}
}

// The race detector's state of an asynchronous collective or copy hangs
// off one pointer, nil with the detector off, so the records every run
// makes stay in the 208- and 352-byte size classes.
func TestPoolRaceStateIsOnePointer(t *testing.T) {
	if got := unsafe.Sizeof(Collective{}); got > 208 {
		t.Errorf("sizeof(Collective) = %d, want ≤ 208", got)
	}
	if got := unsafe.Sizeof(copyOp[int]{}); got > 352 {
		t.Errorf("sizeof(copyOp[int]) = %d, want ≤ 352", got)
	}
}

// A delivery token is four words: every spawn and copy record holds one.
func TestPoolDelivTokenIsFourWords(t *testing.T) {
	if got := unsafe.Sizeof(delivToken{}); got > 32 {
		t.Errorf("sizeof(delivToken) = %d, want ≤ 32", got)
	}
}
