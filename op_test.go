package caf_test

// Tests for the continuation-based completion API: Op handles, firing
// rules, Then chaining, PollSet multiplexing, and CofenceOp.

import (
	"reflect"
	"testing"

	caf "caf2go"
)

// TestOpLevelsFireForCopy registers continuations on all three levels of
// an asynchronous put and checks each fires exactly once, in a
// deterministic order, with Done reporting the observed levels.
func TestOpLevelsFireForCopy(t *testing.T) {
	for _, traced := range []bool{false, true} {
		name := "tracing-off"
		if traced {
			name = "tracing-on"
		}
		t.Run(name, func(t *testing.T) {
			var order []string
			cfg := caf.Config{Images: 2, Seed: 1}
			if traced {
				cfg.TraceCapacity = 1 << 12
			}
			_, err := caf.Run(cfg, func(img *caf.Image) {
				ca := caf.NewCoarray[int64](img, nil, 1)
				var op *caf.Op
				src := []int64{42}
				img.Finish(nil, func() {
					if img.Rank() != 0 {
						return
					}
					op = caf.CopyAsync(img, ca.Sec(1, 0, 1), caf.Local(src))
					op.OnLocalData(func() { order = append(order, "local-data") })
					op.OnLocalCompletion(func() { order = append(order, "local-completion") })
					op.OnGlobalCompletion(func() { order = append(order, "global") })
					if op.Kind() != "copy" || op.Initiator() != 0 {
						t.Errorf("handle identity: kind=%q initiator=%d", op.Kind(), op.Initiator())
					}
				})
				if img.Rank() != 0 {
					return
				}
				for _, l := range []caf.CompletionLevel{caf.LocalData, caf.LocalCompletion, caf.GlobalCompletion} {
					if !op.Done(l) {
						t.Errorf("after finish, level %v not done", l)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			// A put's local data completes at injection, and the two
			// completion levels are both observed at the destination
			// delivery: handler first (global), then the fabric's
			// delivery callback (local completion ack).
			want := []string{"local-data", "global", "local-completion"}
			if !reflect.DeepEqual(order, want) {
				t.Errorf("firing order %v, want %v", order, want)
			}
		})
	}
}

// TestOpLateRegistrationFiresInline registers on an op whose levels have
// already completed: the callbacks must run immediately at registration.
func TestOpLateRegistrationFiresInline(t *testing.T) {
	_, err := caf.Run(caf.Config{Images: 2, Seed: 1}, func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 1)
		var op *caf.Op
		img.Finish(nil, func() {
			if img.Rank() != 0 {
				return
			}
			op = caf.CopyAsync(img, ca.Sec(1, 0, 1), caf.Local([]int64{7}))
		})
		if img.Rank() != 0 {
			return
		}
		fired := 0
		op.OnLocalData(func() { fired++ }).
			OnLocalCompletion(func() { fired++ }).
			OnGlobalCompletion(func() { fired++ })
		if fired != 3 {
			t.Errorf("late registrations fired %d callbacks inline, want 3", fired)
		}
		// Then on a globally-complete op runs inline too.
		ran := false
		d := op.Then(func() { ran = true })
		if !ran || !d.Done(caf.GlobalCompletion) {
			t.Errorf("Then on complete op: ran=%v, derived done=%v", ran, d.Done(caf.GlobalCompletion))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestThenChainsOperations chains a second copy off the first's global
// completion and waits for the chain via a PollSet.
func TestThenChainsOperations(t *testing.T) {
	var got int64
	_, err := caf.Run(caf.Config{Images: 3, Seed: 1}, func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 1)
		if img.Rank() == 0 {
			ca.Local(img)[0] = 99
		}
		img.Barrier(nil)
		if img.Rank() == 0 {
			ps := img.NewPollSet()
			hop1 := caf.CopyAsync(img, ca.At(1), ca.At(0))
			d := hop1.Then(func() {
				ps.Add(caf.CopyAsync(img, ca.At(2), ca.At(1)))
			})
			ps.Add(d)
			ps.Drain()
			got = caf.Get(img, ca.At(2))[0]
		}
		img.Barrier(nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Errorf("chained pipeline delivered %d, want 99", got)
	}
}

// TestPollSetCounts exercises Pending/Ready/Poll/Wait/Drain bookkeeping.
func TestPollSetCounts(t *testing.T) {
	_, err := caf.Run(caf.Config{Images: 2, Seed: 1}, func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 1)
		if img.Rank() != 0 {
			img.Finish(nil, func() {})
			return
		}
		ps := img.NewPollSet()
		if ps.Wait() != 0 || ps.Drain() != 0 || ps.Poll() != 0 {
			t.Error("empty poll set must report zero continuations")
		}
		ran := 0
		img.Finish(nil, func() {
			op := caf.CopyAsync(img, ca.Sec(1, 0, 1), caf.Local([]int64{1}))
			ps.OnLocalData(op, func() { ran++ })
			ps.OnGlobalCompletion(op, func() { ran++ })
			if ps.Pending() != 2 {
				t.Errorf("pending %d, want 2", ps.Pending())
			}
		})
		// Finish completed the op, so both continuations are ready (a
		// registration whose level already fired enqueues immediately).
		if ps.Ready() != 2 {
			t.Errorf("ready %d, want 2", ps.Ready())
		}
		if n := ps.Drain(); n != 2 || ran != 2 {
			t.Errorf("drain ran %d (handlers %d), want 2", n, ran)
		}
		if ps.Pending() != 0 || ps.Ready() != 0 {
			t.Errorf("counts not reset: pending %d ready %d", ps.Pending(), ps.Ready())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCofenceOp checks the non-parking fence: immediate completion with
// nothing outstanding, completion after the constrained ops' local data
// otherwise, and the DOWNWARD filter letting allowed classes pass.
func TestCofenceOp(t *testing.T) {
	_, err := caf.Run(caf.Config{Images: 2, Seed: 1}, func(img *caf.Image) {
		ca := caf.NewCoarray[int64](img, nil, 1)
		if img.Rank() != 0 {
			img.Barrier(nil)
			return
		}
		// Nothing outstanding: all levels complete at return.
		if f := img.CofenceOp(caf.AllowNone); !f.Done(caf.GlobalCompletion) {
			t.Error("empty cofence op not complete at return")
		}

		src := []int64{5}
		op := caf.CopyAsync(img, ca.Sec(1, 0, 1), caf.Local(src)) // reads local src
		f := img.CofenceOp(caf.AllowNone)
		if f.Done(caf.LocalData) != op.Done(caf.LocalData) {
			t.Error("cofence op disagrees with the copy's local-data state")
		}
		// A read-allowing fence lets the pending read pass: complete now.
		if g := img.CofenceOp(caf.AllowRead); !g.Done(caf.GlobalCompletion) {
			t.Error("AllowRead cofence op should not be constrained by a read op")
		}
		ps := img.NewPollSet()
		ps.OnGlobalCompletion(f, nil)
		ps.Drain()
		if !f.Done(caf.GlobalCompletion) || !op.Done(caf.LocalData) {
			t.Error("cofence op did not complete with its constrained op")
		}
		img.Barrier(nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSpawnNotifyCollectiveHandles covers the remaining initiation
// surfaces: Spawn, EventNotify, and async collectives all return usable
// completion handles.
func TestSpawnNotifyCollectiveHandles(t *testing.T) {
	_, err := caf.Run(caf.Config{Images: 4, Seed: 1}, func(img *caf.Image) {
		me := img.Rank()
		spawnDone := false
		img.Finish(nil, func() {
			op := img.SpawnHandle((me+1)%4, func(r *caf.Image) {
				r.Compute(5 * caf.Microsecond)
			})
			op.OnGlobalCompletion(func() { spawnDone = true })
			if !op.Done(caf.LocalData) {
				t.Error("spawn local data (argument evaluation) not complete at initiation")
			}
		})
		if !spawnDone {
			t.Error("spawn continuation did not fire by finish exit")
		}

		c := img.AllreduceAsync(nil, caf.Sum, []int64{int64(me)})
		ps := img.NewPollSet()
		var sum int64
		ps.OnLocalData(c.Op(), func() { sum = c.Result().([]int64)[0] })
		ps.Drain()
		if sum != 6 {
			t.Errorf("allreduce continuation read %d, want 6", sum)
		}
		img.Barrier(nil)

		if me == 1 {
			ev := img.NewEvent()
			nop := img.EventNotify(ev)
			img.EventWait(ev)
			if !nop.Done(caf.GlobalCompletion) {
				t.Error("notify not globally complete after its post was consumed")
			}
		}
		img.Barrier(nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}
