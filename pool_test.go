package caf

// Tests of the allocation-free message path as seen from the language
// level: what a blocking Get/Put pair and a shipped function still
// allocate once the record pools of internal/fabric and internal/rt are
// warm (DESIGN §4.14), that a quarantined run equals a pooled one, and
// that the per-image list of outstanding deliveries stays bounded.

import (
	"reflect"
	"testing"

	"caf2go/internal/sim"
)

func skipUnlessPinned(t *testing.T) {
	if sim.GoRace || sim.QuarantinePools {
		t.Skip("allocation counts are pinned without -race, pools on")
	}
}

// The inner loop of the reference RandomAccess (Fig. 13): blocking Get,
// local update, blocking Put. Five objects are the operation's own: the
// get's request record and result slice, the put's request record and
// data copy, and the caller's one-element argument slice.
func TestPoolGetPutAllocs(t *testing.T) {
	skipUnlessPinned(t)
	var allocs float64
	_, err := Run(Config{Images: 2, Seed: 1}, func(img *Image) {
		ca := NewCoarray[uint64](img, nil, 512)
		if img.Rank() != 0 {
			return
		}
		i := 0
		update := func() {
			idx := i % 512
			v := Get(img, ca.Sec(1, idx, idx+1))
			img.Compute(50 * Nanosecond)
			Put(img, ca.Sec(1, idx, idx+1), []uint64{v[0] ^ uint64(i)})
			i++
		}
		update() // warm-up: fills the pools
		allocs = testing.AllocsPerRun(200, update)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 6 {
		t.Errorf("allocations per Get + Compute + Put = %v, want ≤ 6", allocs)
	}
}

// A no-op shipped function under finish, one at a time so that every
// pooled record is back before the next spawn: what is left is the
// spawn's own state (handle, message, tokens, the handler's proc and
// Image, the finish plane's contexts).
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
	if allocs > 16 {
		t.Errorf("allocations per no-op Spawn = %v, want ≤ 16", allocs)
	}
}

// An image that spawns and copies but never notifies used to keep every
// delivery token it ever made: the list was pruned only by EventNotify.
// It must follow the number of deliveries in flight instead.
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
	// Finished tokens leave when the backing array fills, and the array
	// doubles only while more than half of it is in flight: its size
	// settles below four times the high-water mark.
	if lenPeak > 4*inFlightPeak {
		t.Errorf("pendingDeliv reached %d entries over %d spawns with at most %d in flight",
			lenPeak, spawns, inFlightPeak)
	}
}

// quarantineMix exercises every record kind from the language level:
// blocking get/put, a lock handed between contenders (a Delivery detached
// across other dispatches), copies with cofence, shipped functions under
// finish, and an event notified behind outstanding deliveries.
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
		"coalesced": {Images: 4, Seed: 3, Coalescing: Coalescing{MaxMsgs: 4}},
		"faults":    {Images: 4, Seed: 3, Faults: &FaultPlan{Seed: 3, Drop: 0.1, Dup: 0.2, Jitter: 5 * Microsecond}},
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
